//! Property and corruption tests for the socket frame codec.
//!
//! The codec is the trust boundary between a rank and the network: every
//! byte that arrives is attacker-controlled as far as the decoder is
//! concerned. Two families of guarantees are pinned here:
//!
//! * **round-trip** — encode → decode is the identity for every frame
//!   kind, sequence number, and payload (including Delta-row-shaped
//!   payloads), and decoding consumes exactly the encoded length even
//!   with trailing bytes from a following frame;
//! * **corruption** — the CRC covers the *entire* frame, so every
//!   single-bit flip anywhere (header included) is a typed error, and
//!   every truncation is `FrameError::Truncated` (the "read more"
//!   signal), never a panic or a bogus frame.

use aaa_runtime::net::{FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
use aaa_runtime::{decode_frame, encode_frame, Frame, FrameError, FrameKind, Hello};
use proptest::prelude::*;

fn any_kind() -> impl Strategy<Value = FrameKind> {
    (0usize..FrameKind::ALL.len()).prop_map(|i| FrameKind::ALL[i])
}

/// Arbitrary payload bytes, biased toward the shapes the protocol layer
/// actually ships: empty control payloads, Delta-row-style LE tuples, and
/// unstructured fuzz.
fn any_payload() -> impl Strategy<Value = Vec<u8>> {
    (0u8..3).prop_flat_map(|which| match which {
        0 => Just(Vec::new()).boxed(),
        // Delta-row shape: (u32 vertex, u32 dist) pairs, little-endian.
        1 => proptest::collection::vec((0u32..5_000, 0u32..100_000), 0..24)
            .prop_map(|pairs| {
                let mut out = Vec::with_capacity(8 * pairs.len());
                for (v, d) in pairs {
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&d.to_le_bytes());
                }
                out
            })
            .boxed(),
        _ => proptest::collection::vec(0u8..=255, 0..200).boxed(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_is_the_identity(
        kind in any_kind(),
        seq in 0u64..=u64::MAX,
        payload in any_payload(),
    ) {
        let frame = Frame { kind, seq, payload };
        let bytes = encode_frame(&frame);
        let (decoded, consumed) = decode_frame(&bytes).expect("own encoding decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn decode_consumes_exactly_one_frame_from_a_stream(
        kind in any_kind(),
        seq in 0u64..=u64::MAX,
        payload in any_payload(),
        trailing in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // A TCP read usually hands back this frame plus the head of the
        // next one; the decoder must stop at the boundary.
        let frame = Frame { kind, seq, payload };
        let bytes = encode_frame(&frame);
        let mut stream = bytes.clone();
        stream.extend_from_slice(&trailing);
        let (decoded, consumed) = decode_frame(&stream).expect("prefix decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error(
        kind in any_kind(),
        seq in 0u64..=u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // CRC-32 detects all single-bit errors, and the CRC here covers
        // header and payload alike — so no flip anywhere may yield Ok.
        let bytes = encode_frame(&Frame { kind, seq, payload });
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                match decode_frame(&bad) {
                    Err(_) => {}
                    Ok((frame, _)) => prop_assert!(
                        false,
                        "bit {bit} of byte {pos} flipped undetected; decoded {:?}",
                        frame.kind
                    ),
                }
            }
        }
    }

    #[test]
    fn every_truncation_asks_for_more_bytes(
        kind in any_kind(),
        seq in 0u64..=u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let bytes = encode_frame(&Frame { kind, seq, payload });
        for cut in 0..bytes.len() {
            // The cursor takes twice: the header whole, then the payload
            // the header declares — and asks for exactly that much.
            let need = if cut < FRAME_HEADER_LEN { FRAME_HEADER_LEN } else { bytes.len() };
            prop_assert_eq!(
                decode_frame(&bytes[..cut]),
                Err(FrameError::Truncated { have: cut, need })
            );
        }
        // A declared length larger than the bytes left — by one, or by
        // anything up to the cap — asks for more and sizes nothing by it.
        for extra in [1u32, 2, 255, 65_536, MAX_FRAME_PAYLOAD - (bytes.len() - FRAME_HEADER_LEN) as u32] {
            let mut long = bytes.clone();
            let claimed = (bytes.len() - FRAME_HEADER_LEN) as u32 + extra;
            long[12..16].copy_from_slice(&claimed.to_le_bytes());
            prop_assert_eq!(
                decode_frame(&long),
                Err(FrameError::Truncated {
                    have: bytes.len(),
                    need: FRAME_HEADER_LEN + claimed as usize,
                })
            );
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_short_input(
        rank in 0u32..=u32::MAX,
        session in 0u64..=u64::MAX,
        last_recv in 0u64..=u64::MAX,
    ) {
        let hello = Hello { rank, session, last_recv };
        let bytes = hello.to_bytes();
        prop_assert_eq!(Hello::from_bytes(&bytes).expect("own encoding decodes"), hello);
        for cut in 0..bytes.len() {
            prop_assert_eq!(
                Hello::from_bytes(&bytes[..cut]),
                Err(FrameError::Truncated { have: cut, need: bytes.len() })
            );
        }
    }
}

/// Deterministic edge cases the fuzz loops above could in principle miss.
#[test]
fn hostile_headers_map_to_the_right_typed_errors() {
    let good = encode_frame(&Frame { kind: FrameKind::Data, seq: 9, payload: vec![1, 2, 3] });

    // Wrong magic beats everything else.
    let mut bad = good.clone();
    bad[0] = 0x00;
    assert!(matches!(decode_frame(&bad), Err(FrameError::BadMagic(_))));

    // Unknown kind byte.
    let mut bad = good.clone();
    bad[2] = 0xEE;
    assert!(matches!(decode_frame(&bad), Err(FrameError::UnknownKind(0xEE))));

    // Reserved flags set.
    let mut bad = good.clone();
    bad[3] = 0x01;
    assert!(matches!(decode_frame(&bad), Err(FrameError::BadFlags(0x01))));

    // A length field claiming more than the cap is rejected *before* any
    // allocation — the allocation-bomb guard.
    let mut bad = good.clone();
    bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(decode_frame(&bad), Err(FrameError::TooLarge { .. })));

    // A length field inside the cap but beyond the buffer just asks for
    // more bytes; the stream loop's deadline bounds how long it waits.
    let mut bad = good.clone();
    bad[12..16].copy_from_slice(&1_000u32.to_le_bytes());
    assert!(matches!(decode_frame(&bad), Err(FrameError::Truncated { .. })));

    // Same frame with a re-zeroed CRC: pure CRC failure.
    let mut bad = good.clone();
    bad[16..20].copy_from_slice(&[0; 4]);
    assert!(matches!(decode_frame(&bad), Err(FrameError::BadCrc { .. })));

    // The unharmed original still decodes.
    assert!(decode_frame(&good).is_ok());
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// Three frames as encoded by the commit before the shared checksum (the
/// nibble-table CRC over a zeroed copy): the header layout and every CRC
/// on the wire are pinned by bytes an older encoder produced.
#[test]
fn frames_from_the_previous_encoder_are_reproduced_and_accepted() {
    let payload70: Vec<u8> = (0..70u32).map(|i| (i * 37 + 11) as u8).collect();
    let cases = [
        (
            Frame { kind: FrameKind::Heartbeat, seq: 0, payload: vec![] },
            "7aaa0400000000000000000000000000bd022a5d",
        ),
        (
            Frame { kind: FrameKind::Ack, seq: 0, payload: vec![0x5a] },
            "7aaa0600000000000000000001000000e6a0fe8f5a",
        ),
        (
            Frame { kind: FrameKind::Data, seq: 0x0102_0304_0506_0708, payload: payload70 },
            concat!(
        "7aaa03000807060504030201460000005f1fe7ba0b30557a9fc4e90e33587da2c7ec11365b80a5caef14395e",
        "83a8cdf2173c6186abd0f51a3f6489aed3f81d42678cb1d6fb20456a8fb4d9fe23486d92b7dc01264b7095ba",
        "df04",
            ),
        ),
    ];
    for (frame, hex) in cases {
        let golden = unhex(hex);
        assert_eq!(
            encode_frame(&frame),
            golden,
            "encoder drifted ({} B payload)",
            frame.payload.len()
        );
        assert_eq!(decode_frame(&golden), Ok((frame, golden.len())));
    }
}

/// The decoder checksums the frame in three pieces — bytes 0..16, four
/// zeros standing in for the CRC field, bytes 20.. — so the seams are
/// where a slip would hide: every bit of the header, of the CRC field and
/// of the first payload bytes must still be covered.
#[test]
fn every_bit_around_the_checksum_seams_is_covered() {
    for len in [0usize, 1, 4, 15, 16, 17, 70] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
        let bytes = encode_frame(&Frame { kind: FrameKind::Data, seq: 77, payload });
        for pos in 0..bytes.len().min(24) {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "len {len}: bit {bit} of byte {pos} undetected"
                );
            }
        }
    }
}

/// A partial frame is never judged: with a damaged payload, every prefix
/// short of the whole frame still says "read more", and only the complete
/// frame is checksummed and rejected.
#[test]
fn a_partial_frame_is_truncated_before_it_is_checksummed() {
    let mut bytes = encode_frame(&Frame { kind: FrameKind::Data, seq: 5, payload: vec![0xC3; 70] });
    bytes[40] ^= 0x10;
    for cut in 0..bytes.len() {
        assert!(
            matches!(decode_frame(&bytes[..cut]), Err(FrameError::Truncated { .. })),
            "cut {cut}"
        );
    }
    assert!(matches!(decode_frame(&bytes), Err(FrameError::BadCrc { .. })));
}
