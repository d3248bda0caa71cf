//! Property and corruption tests for the cluster protocol codec
//! (`NetMsg`), the layer that rides inside `Data` frames.
//!
//! The frame codec below this one guarantees integrity (CRC over the
//! whole frame), but the protocol decoder still has to be total: a buggy
//! or version-skewed peer can ship a frame that passes the CRC and still
//! carries garbage. Every byte-level corruption must come back as a typed
//! [`WireError`] or as a different-but-valid message — never a panic, and
//! never an allocation bomb from a hostile length prefix.

use aaa_core::rank::{RowMsg, RowPayload, WireFormat};
use aaa_core::{NetMsg, Publisher, ViewDelta, WireError};
use aaa_graph::sssp::BFS_LANES;
use aaa_graph::INF;
use proptest::prelude::*;

fn any_row_payload() -> impl Strategy<Value = RowPayload> {
    (0u8..2).prop_flat_map(|which| match which {
        0 => proptest::collection::vec(0u32..=INF, 0..32).prop_map(RowPayload::Full).boxed(),
        _ => proptest::collection::vec((0u32..10_000, 0u32..=INF), 0..32)
            .prop_map(RowPayload::Delta)
            .boxed(),
    })
}

fn any_rowmsg() -> impl Strategy<Value = RowMsg> {
    proptest::collection::vec((0u32..10_000, any_row_payload()), 0..8)
        .prop_map(|rows| RowMsg { rows })
}

fn any_rows_list() -> impl Strategy<Value = Vec<(u32, Vec<u32>)>> {
    proptest::collection::vec((0u32..10_000, proptest::collection::vec(0u32..=INF, 0..24)), 0..6)
}

fn any_pairs() -> impl Strategy<Value = Vec<(u32, u64)>> {
    proptest::collection::vec((0u32..96, 0u64..=u64::MAX), 0..24)
}

/// Well-framed view deltas a follower must survive: ids beyond `n`,
/// unsorted and repeated ids, unknown and repeated metric kinds, any value
/// bits. `tidy` sorts the lists and keeps ids below `n`, so a good share of
/// the corpus gets past the checks into the apply itself.
fn any_view_delta() -> impl Strategy<Value = NetMsg> {
    (
        (0u64..1 << 20, 0u64..1 << 20, 0u64..1 << 20, 0u32..96, 0u8..8),
        any_pairs(),
        any_pairs(),
        proptest::collection::vec((0u8..4, any_pairs()), 0..3),
    )
        .prop_map(|((epoch, rc_steps, changes_applied, n, bits), entries, bounds, extras)| {
            let tidy = |mut pairs: Vec<(u32, u64)>| {
                if bits & 4 != 0 {
                    pairs.retain(|p| p.0 < n);
                    pairs.sort_unstable_by_key(|p| p.0);
                    pairs.dedup_by_key(|p| p.0);
                }
                pairs
            };
            NetMsg::ViewDelta {
                epoch,
                rc_steps,
                changes_applied,
                n,
                converged: bits & 1 != 0,
                full: bits & 2 != 0,
                entries: tidy(entries),
                bounds: tidy(bounds),
                extras: extras.into_iter().map(|(kind, pairs)| (kind, tidy(pairs))).collect(),
            }
        })
}

/// One strategy per message tag, so the corpus exercises every arm of the
/// codec — including the `Rows` arm with both Full and Delta payloads.
fn any_netmsg() -> impl Strategy<Value = NetMsg> {
    (0u8..15).prop_flat_map(|tag| match tag {
        0 => (
            (0u32..64, 1u32..64, 0u8..2),
            proptest::collection::vec(0u32..64, 0..128),
            proptest::collection::vec((0u32..200, 0u32..200, 1u32..100), 0..256),
            proptest::collection::vec(0u32..=INF, 0..256),
        )
            .prop_map(|((rank, procs, wire), owner, edges, landmarks)| NetMsg::Init {
                rank,
                procs,
                wire: if wire == 0 { WireFormat::Full } else { WireFormat::Delta },
                owner,
                edges,
                landmarks,
            })
            .boxed(),
        1 => (0u32..64).prop_map(|rank| NetMsg::Ready { rank }).boxed(),
        2 => (0u64..1 << 32).prop_map(|round| NetMsg::Produce { round }).boxed(),
        3 => ((0u64..1 << 32, 0u32..64), any_rowmsg())
            .prop_map(|((round, peer), msg)| NetMsg::Rows { round, peer, msg })
            .boxed(),
        4 => (0u64..1 << 32, 0u8..2)
            .prop_map(|(round, sent)| NetMsg::RowsDone { round, sent: sent == 1 })
            .boxed(),
        5 => (0u64..1 << 32, 0u32..1 << 16)
            .prop_map(|(round, expect)| NetMsg::Consume { round, expect })
            .boxed(),
        6 => (0u64..1 << 32, 0u8..2, 0u8..2)
            .prop_map(|(round, changed, dirty)| NetMsg::StepDone {
                round,
                changed: changed == 1,
                dirty: dirty == 1,
            })
            .boxed(),
        7 => Just(NetMsg::GatherClose).boxed(),
        8 => proptest::collection::vec((0u32..10_000, 0u64..=u64::MAX), 0..64)
            .prop_map(|pairs| NetMsg::CloseReply { pairs })
            .boxed(),
        9 => Just(NetMsg::GatherRows).boxed(),
        10 => any_rows_list().prop_map(|rows| NetMsg::RowsReply { rows }).boxed(),
        11 => any_rows_list().prop_map(|rows| NetMsg::Absorb { rows }).boxed(),
        12 => Just(NetMsg::ResendAll).boxed(),
        13 => (
            0u64..1 << 32,
            proptest::collection::vec((0u32..10_000, 0u32..64), 0..32),
            proptest::collection::vec((0u32..10_000, 0u32..10_000, 1u32..100), 0..64),
        )
            .prop_map(|(round, moves, adj)| NetMsg::Reassign { round, moves, adj })
            .boxed(),
        _ => any_view_delta().boxed(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encode_decode_is_the_identity(msg in any_netmsg()) {
        let bytes = msg.encode();
        let back = NetMsg::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn every_single_bit_flip_is_handled(msg in any_netmsg()) {
        // Unlike the frame layer there is no checksum here (the frame CRC
        // provides it), so a flip may legitimately decode to a different
        // valid message — but it must never panic or hang.
        let bytes = msg.encode();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                match NetMsg::decode(&bad) {
                    Ok(_) => {}
                    Err(
                        WireError::Truncated { .. }
                        | WireError::UnknownTag(_)
                        | WireError::UnknownWire(_)
                        | WireError::UnknownPayload(_)
                        | WireError::TrailingBytes { .. }
                        | WireError::ReservedFlags(_),
                    ) => {}
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error(msg in any_netmsg()) {
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            match NetMsg::decode(&bytes[..cut]) {
                // Every byte present is a valid one, so the first thing to
                // go wrong is the cursor running out — at or before the cut.
                Err(WireError::Truncated { at }) => prop_assert!(at <= cut, "at {at}, cut {cut}"),
                Err(other) => prop_assert!(false, "prefix of {cut} bytes: {other:?}"),
                // Dropping trailing bytes can only produce a shorter valid
                // message if the codec were ambiguous — it is length-prefixed
                // everywhere, so a strict prefix must never decode.
                Ok(short) => prop_assert!(
                    false,
                    "prefix of {cut}/{} bytes decoded as {short:?}",
                    bytes.len()
                ),
            }
        }
        // A count larger than the bytes left, planted at every offset: where
        // it lands on a count it is a short read — never an allocation sized
        // by it; where it lands on a value the message decodes to something
        // else or fails its own check. Nothing panics, nothing aborts.
        let mut bomb = bytes.clone();
        for at in 1..bytes.len().saturating_sub(3) {
            bomb[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let _ = NetMsg::decode(&bomb);
            bomb[at..at + 4].copy_from_slice(&bytes[at..at + 4]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wire → follower boundary: whatever a well-framed view delta
    /// says, `decode → from_msg → apply_to` ends in a view of the announced
    /// size or in a typed error — never in an index out of bounds.
    #[test]
    fn well_framed_view_deltas_never_panic_a_follower(
        msg in any_view_delta(),
        prev_n in 0usize..64,
        bounded in 0u8..2,
    ) {
        let bounds = if bounded == 1 { vec![0.125; prev_n] } else { Vec::new() };
        let restate = |c: Vec<f64>| c.into_iter().enumerate().map(|(v, x)| (v as u32, x)).collect();
        let mut leader = Publisher::new();
        let prev = leader.publish(ViewDelta {
            epoch: 0,
            rc_steps: 1,
            changes_applied: 0,
            converged: false,
            full: true,
            n: prev_n,
            entries: restate(vec![0.5; prev_n]),
            bounds: restate(bounds),
            extras: Vec::new(),
        });
        let decoded = NetMsg::decode(&msg.encode()).expect("own encoding decodes");
        if let Ok(delta) = ViewDelta::from_msg(&decoded) {
            if let Ok(view) = delta.apply_to(&prev) {
                prop_assert_eq!(view.num_vertices(), delta.n);
                prop_assert_eq!(view.epoch, delta.epoch);
                prop_assert_eq!(view.metrics().len(), 1 + delta.extras.len());
            }
        }
    }
}

/// A hostile count prefix must be rejected by bounds-checking against the
/// remaining input, not trusted as an allocation size.
#[test]
fn hostile_length_prefixes_do_not_allocate() {
    // CloseReply claiming u32::MAX pairs with a 4-byte body.
    let mut bomb = vec![9u8]; // CloseReply tag
    bomb.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(NetMsg::decode(&bomb), Err(WireError::Truncated { .. })));

    // Init claiming a huge owner table.
    let mut bomb = vec![1u8]; // Init tag
    bomb.extend_from_slice(&0u32.to_le_bytes()); // rank
    bomb.extend_from_slice(&4u32.to_le_bytes()); // procs
    bomb.push(0); // wire = Full
    bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // owner count
    assert!(matches!(NetMsg::decode(&bomb), Err(WireError::Truncated { .. })));

    // Init whose last field, the landmark rows, claims one cell more than
    // follows.
    let landmarks = vec![1, 0, 1, 2];
    let mut bomb = NetMsg::Init {
        rank: 0,
        procs: 2,
        wire: WireFormat::Full,
        owner: vec![0, 0, 1, 1],
        edges: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        landmarks: landmarks.clone(),
    }
    .encode();
    let count = bomb.len() - 4 * (1 + landmarks.len());
    bomb[count..count + 4].copy_from_slice(&(landmarks.len() as u32 + 1).to_le_bytes());
    assert!(matches!(NetMsg::decode(&bomb), Err(WireError::Truncated { .. })));

    // A Rows bundle whose inner row claims a giant Full vector.
    let mut bomb = vec![4u8]; // Rows tag
    bomb.extend_from_slice(&1u64.to_le_bytes()); // round
    bomb.extend_from_slice(&0u32.to_le_bytes()); // peer
    bomb.extend_from_slice(&1u32.to_le_bytes()); // one row
    bomb.extend_from_slice(&7u32.to_le_bytes()); // vertex
    bomb.push(0); // RowPayload::Full
    bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // entry count
    assert!(matches!(NetMsg::decode(&bomb), Err(WireError::Truncated { .. })));
}

#[test]
fn unknown_tags_and_trailing_bytes_are_typed_errors() {
    assert!(matches!(NetMsg::decode(&[0xEE]), Err(WireError::UnknownTag(0xEE))));
    assert!(matches!(NetMsg::decode(&[]), Err(WireError::Truncated { .. })));

    let mut padded = NetMsg::ResendAll.encode();
    padded.push(0);
    assert!(matches!(NetMsg::decode(&padded), Err(WireError::TrailingBytes { extra: 1 })));

    // Unknown wire-format byte inside Init.
    let mut msg = NetMsg::Init {
        rank: 0,
        procs: 2,
        wire: WireFormat::Full,
        owner: vec![0, 1],
        edges: vec![(0, 1, 1)],
        landmarks: Vec::new(),
    }
    .encode();
    // Init layout: tag, rank u32, procs u32, wire u8 at offset 9.
    msg[9] = 9;
    assert!(matches!(NetMsg::decode(&msg), Err(WireError::UnknownWire(9))));
}

/// A frame can decode cleanly and still name a vertex or a rank the `Init`
/// never sized the worker for. The ids index the owner map and the DV
/// store, so the worker must refuse them at the protocol boundary — with
/// `NetError::Protocol` naming the field — and return, not die in a panic.
/// One case per message that carries ids; the well-formed twin of each is
/// served.
#[test]
fn out_of_range_ids_from_the_wire_end_the_worker_with_a_protocol_error() {
    use aaa_core::run_worker;
    use aaa_runtime::net::{FrameKind, LocalTransport, NetError, Transport};
    use std::time::Duration;

    // Feeds one worker `msgs`, then a shutdown; how its thread ended.
    let verdict = |msgs: Vec<NetMsg>| {
        let (mut coordinator, mut worker) = LocalTransport::pair("coordinator", "rank0");
        let handle = std::thread::spawn(move || run_worker(&mut worker, Duration::from_secs(10)));
        for msg in msgs {
            // A worker that already refused a frame has hung up.
            let _ = coordinator.send(FrameKind::Data, &msg.encode());
        }
        let _ = coordinator.send(FrameKind::Shutdown, &[]);
        handle.join().expect("the worker returns; it does not panic")
    };
    let init = |rank: u32, owner: Vec<u32>, edges: Vec<(u32, u32, u32)>| NetMsg::Init {
        rank,
        procs: 2,
        wire: WireFormat::Full,
        owner,
        edges,
        landmarks: Vec::new(),
    };
    // Path 0-1-2-3 split 2|2, the worker is rank 0.
    let good = || init(0, vec![0, 0, 1, 1], vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
    // The same rank, seeded by `landmarks`.
    let seeded = |landmarks: Vec<u32>| NetMsg::Init {
        rank: 0,
        procs: 2,
        wire: WireFormat::Full,
        owner: vec![0, 0, 1, 1],
        edges: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        landmarks,
    };
    let rows = |v: u32| NetMsg::Rows {
        round: 1,
        peer: 1,
        msg: RowMsg { rows: vec![(v, RowPayload::Full(vec![2, 1, 0, 1]))] },
    };
    let consume = NetMsg::Consume { round: 1, expect: 1 };
    let reassign = |moves, adj| NetMsg::Reassign { round: 1, moves, adj };

    let served: Vec<Vec<NetMsg>> = vec![
        vec![good(), rows(2), consume.clone()],
        vec![good(), NetMsg::Absorb { rows: vec![(1, vec![1, 0, 1, 2])] }],
        // Rank 0 gives vertex 1 away and gains nothing.
        vec![
            good(),
            reassign(vec![(1, 1)], vec![(1, 0, 1), (1, 2, 1)]),
            NetMsg::Consume { round: 1, expect: 0 },
        ],
        // The rows of landmarks 1 and 2, then every row the limit allows.
        vec![seeded(vec![1, 0, 1, 2, 2, 1, 0, 1]), rows(2), consume.clone()],
        vec![seeded(vec![0; 4 * BFS_LANES])],
    ];
    for msgs in served {
        let ended = verdict(msgs.clone());
        assert!(ended.is_ok(), "{msgs:?}: worker ended with {ended:?}");
    }
    let refused: Vec<(Vec<NetMsg>, &str)> = vec![
        (vec![init(0, vec![0, 0, 1, 2], vec![])], "Init.owner part 2"),
        (vec![init(0, vec![0, 0, 1, 1], vec![(0, 4, 1)])], "Init.edges endpoint 4"),
        (vec![init(2, vec![0, 0, 1, 1], vec![])], "Init.rank 2"),
        (vec![good(), rows(9), consume.clone()], "Rows.rows vertex 9"),
        (vec![rows(0)], "Rows.rows vertex 0"),
        (vec![good(), NetMsg::Absorb { rows: vec![(4, vec![0; 4])] }], "Absorb.rows vertex 4"),
        (vec![good(), reassign(vec![(77, 1)], vec![])], "Reassign.moves vertex 77"),
        (vec![good(), reassign(vec![(1, 2)], vec![])], "Reassign.moves part 2"),
        (vec![good(), reassign(vec![(1, 1)], vec![(1, 4, 1)])], "Reassign.adj endpoint 4"),
        (vec![seeded(vec![1, 0, 1, 2, 2, 1])], "Init.landmarks"),
        (vec![seeded(vec![0; 4 * (BFS_LANES + 1)])], "Init.landmarks"),
    ];
    for (msgs, field) in refused {
        match verdict(msgs.clone()) {
            Err(NetError::Protocol { what, .. }) => {
                assert!(what.starts_with(field), "{msgs:?}: refused with '{what}'")
            }
            other => panic!("{msgs:?}: worker ended with {other:?}"),
        }
    }
}
