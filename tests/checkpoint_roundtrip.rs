//! Snapshot round-trip properties: `restore(checkpoint(e))` must reproduce
//! the engine exactly — same DV fixed points, closeness vectors and RC
//! counters — on random graphs under both executors; and corrupted or
//! truncated snapshots must fail with typed errors, never panic — also
//! with rows of unequal length, through a reader that trickles bytes, at
//! every truncation point and under every single-bit flip.

use anytime_anywhere::checkpoint::{
    crc32, CheckpointError, RowTable, Snapshot, FORMAT_VERSION, MAGIC,
};
use anytime_anywhere::core::{AnytimeEngine, CoreError, EngineConfig};
use anytime_anywhere::graph::{AdjGraph, GraphBuilder};
use anytime_anywhere::runtime::ExecutionMode;
use proptest::prelude::*;

/// An arbitrary simple weighted graph with `n ∈ [2, 40]` vertices.
fn arb_graph() -> impl Strategy<Value = AdjGraph> {
    arb_graph_below(40)
}

/// An arbitrary simple weighted graph with `n ∈ [2, max)` vertices.
fn arb_graph_below(max: usize) -> impl Strategy<Value = AdjGraph> {
    (2usize..max).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..10), 0..(3 * n));
        edges.prop_map(move |edges| {
            let mut b = GraphBuilder::with_vertices(n);
            for (u, v, w) in edges {
                b.edge(u, v, w);
            }
            b.build().expect("builder output is always valid")
        })
    })
}

/// A reader that hands over 1–7 bytes per `read` call, whatever was asked.
struct Trickle<'a> {
    bytes: &'a [u8],
    calls: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        let k = (1 + self.calls * 5 % 7).min(buf.len()).min(self.bytes.len());
        buf[..k].copy_from_slice(&self.bytes[..k]);
        self.bytes = &self.bytes[k..];
        Ok(k)
    }
}

/// `rows` with row `i` cut short by `cuts[i % len]` cells: a table whose
/// rows differ in length, as recovery against an older snapshot sees them.
fn ragged(rows: &RowTable, cuts: &[usize]) -> RowTable {
    let cut = |i: usize| cuts.get(i % cuts.len().max(1)).copied().unwrap_or(0);
    rows.iter()
        .enumerate()
        .map(|(i, (v, row))| (v, &row[..row.len().saturating_sub(cut(i))]))
        .collect()
}

/// The framed sections of a serialized snapshot: offset of the tag, the
/// tag, the payload.
fn sections(bytes: &[u8]) -> Vec<(usize, [u8; 4], &[u8])> {
    let mut at = MAGIC.len() + 8;
    let mut out = Vec::new();
    while at < bytes.len() {
        let tag: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        out.push((at, tag, &bytes[at + 12..at + 12 + len]));
        at += 12 + len + 4;
    }
    out
}

/// `bytes` with the payload of the section at `at` replaced, its length
/// field and CRC trailer made good — so the reader gets past the framing
/// and into the fields.
fn resealed(bytes: &[u8], at: usize, payload: &[u8]) -> Vec<u8> {
    let old = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
    let mut out = bytes[..at + 4].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&bytes[at + 12 + old + 4..]);
    out
}

fn config(p: usize, parallel: bool) -> EngineConfig {
    let mut c = EngineConfig::with_procs(p);
    c.cluster.mode = if parallel { ExecutionMode::Parallel } else { ExecutionMode::Sequential };
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn restore_of_checkpoint_reproduces_fixed_point(
        g in arb_graph(),
        p in 1usize..5,
        steps_before in 0usize..4,
        parallel_pick in 0u8..2,
    ) {
        let parallel = parallel_pick == 1;
        let mut engine = AnytimeEngine::new(g, config(p, parallel)).unwrap();
        for _ in 0..steps_before {
            engine.rc_step();
        }
        let bytes = engine.checkpoint_bytes().unwrap();
        let mut restored = AnytimeEngine::restore(&bytes[..], config(p, parallel)).unwrap();

        // Resume point is exact…
        prop_assert_eq!(restored.rc_steps_done(), engine.rc_steps_done());
        prop_assert_eq!(restored.graph().num_vertices(), engine.graph().num_vertices());
        prop_assert_eq!(restored.distances(), engine.distances());
        prop_assert_eq!(restored.closeness(), engine.closeness());

        // …and both runs converge to the identical fixed point.
        let s1 = engine.run_to_convergence();
        let s2 = restored.run_to_convergence();
        prop_assert!(s1.converged && s2.converged);
        prop_assert_eq!(restored.rc_steps_done(), engine.rc_steps_done());
        prop_assert_eq!(restored.distances(), engine.distances());
        prop_assert_eq!(restored.closeness(), engine.closeness());
    }

    #[test]
    fn snapshot_bytes_roundtrip_is_lossless(
        g in arb_graph(),
        p in 1usize..5,
        steps in 0usize..5,
    ) {
        let mut engine = AnytimeEngine::new(g, config(p, false)).unwrap();
        for _ in 0..steps {
            engine.rc_step();
        }
        let snap = engine.snapshot();
        let bytes = snap.to_bytes().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.meta, snap.meta);
        prop_assert_eq!(back.graph, snap.graph);
        prop_assert_eq!(back.partition, snap.partition);
        prop_assert_eq!(back.ranks, snap.ranks);
        // Re-serializing the parsed snapshot is byte-identical.
        prop_assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn ragged_snapshots_survive_awkward_readers_and_hostile_bytes(
        g in arb_graph_below(12),
        p in 1usize..4,
        steps in 0usize..3,
        cuts in proptest::collection::vec(0usize..14, 0..6),
        metrics in proptest::collection::vec(1u8..4, 0..3),
    ) {
        let mut engine = AnytimeEngine::new(g, config(p, false)).unwrap();
        for _ in 0..steps {
            engine.rc_step();
        }
        let mut snap = engine.snapshot();
        snap.metrics = metrics;
        for rs in &mut snap.ranks {
            rs.local = ragged(&rs.local, &cuts);
            rs.cached = ragged(&rs.cached, &cuts);
        }
        let bytes = snap.to_bytes().unwrap();

        prop_assert_eq!(&Snapshot::from_bytes(&bytes).unwrap(), &snap);
        let trickled = Snapshot::read_from(Trickle { bytes: &bytes, calls: 0 }).unwrap();
        prop_assert_eq!(&trickled, &snap);

        for cut in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..cut]).expect_err("truncated snapshot parsed");
            prop_assert!(
                matches!(err, CheckpointError::Truncated { .. } | CheckpointError::Malformed(_)),
                "cut {}: {:?}", cut, err
            );
        }
        // Past the CRC: each section re-sealed (length and checksum made
        // good again) around a payload cut at every offset is truncation
        // *inside that section* — the field cursor's short read under the
        // section's name — and around a count larger than the bytes left,
        // planted at every offset, is a typed error or some other snapshot,
        // never an allocation sized by the count.
        for (at, tag, payload) in sections(&bytes) {
            let name = String::from_utf8_lossy(&tag).into_owned();
            for cut in 0..payload.len() {
                let err = Snapshot::from_bytes(&resealed(&bytes, at, &payload[..cut]))
                    .expect_err("cut section parsed");
                prop_assert!(
                    matches!(err, CheckpointError::Truncated { section } if section == name),
                    "section {} cut at {}: {:?}", name, cut, err
                );
            }
            let mut bomb = payload.to_vec();
            for i in 0..payload.len().saturating_sub(7) {
                bomb[i..i + 8].copy_from_slice(&(u64::MAX >> 8).to_le_bytes());
                let _ = Snapshot::from_bytes(&resealed(&bytes, at, &bomb));
                bomb[i..i + 8].copy_from_slice(&payload[i..i + 8]);
            }
        }
        // CRC-32 catches every single-bit error inside a payload; header,
        // tag, length and CRC-field flips surface as the other typed
        // errors. None may parse, none may panic.
        let mut bad = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            let result = Snapshot::from_bytes(&bad);
            prop_assert!(result.is_err(), "bit {} of byte {} flipped undetected", bit % 8, bit / 8);
            bad[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn truncation_never_panics_and_is_typed(
        g in arb_graph(),
        cut_permille in 0usize..1000,
    ) {
        let mut engine = AnytimeEngine::new(g, config(2, false)).unwrap();
        engine.run_to_convergence();
        let bytes = engine.checkpoint_bytes().unwrap();
        let cut = bytes.len() * cut_permille / 1000;
        prop_assume!(cut < bytes.len());
        let result = Snapshot::from_bytes(&bytes[..cut]);
        prop_assert!(result.is_err(), "truncated snapshot parsed at cut {}", cut);
        let err = result.unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. }
                    | CheckpointError::BadMagic { .. }
                    | CheckpointError::Malformed(_)
            ),
            "unexpected error class: {:?}",
            err
        );
    }

    #[test]
    fn payload_corruption_is_detected(
        g in arb_graph(),
        flip in 0usize..1_000_000,
    ) {
        let mut engine = AnytimeEngine::new(g, config(2, false)).unwrap();
        let mut bytes = engine.checkpoint_bytes().unwrap();
        // Flip one byte past the header (magic + version + section count).
        let header = MAGIC.len() + 8;
        let i = header + flip % (bytes.len() - header);
        bytes[i] ^= 0xFF;
        // Any typed error is acceptable (CRC usually; a corrupted length
        // or count may surface as truncation/malformed first) — but it
        // must never parse silently into the same snapshot, and never
        // panic.
        if let Ok(parsed) = Snapshot::from_bytes(&bytes) {
            let original = Snapshot::from_bytes(&engine.checkpoint_bytes().unwrap()).unwrap();
            prop_assert!(parsed.ranks != original.ranks || parsed.meta != original.meta);
        }
    }
}

#[test]
fn wrong_magic_and_version_are_typed_errors() {
    let mut b = GraphBuilder::with_vertices(4);
    b.edge(0, 1, 1).edge(1, 2, 1);
    let g = b.build().unwrap();
    let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(2)).unwrap();
    let bytes = engine.checkpoint_bytes().unwrap();

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'Z';
    assert!(matches!(Snapshot::from_bytes(&bad_magic), Err(CheckpointError::BadMagic { .. })));

    let mut bad_version = bytes.clone();
    bad_version[MAGIC.len()] = (FORMAT_VERSION + 1) as u8;
    assert!(matches!(
        Snapshot::from_bytes(&bad_version),
        Err(CheckpointError::UnsupportedVersion { found, supported })
            if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
    ));

    let empty: &[u8] = &[];
    assert!(matches!(Snapshot::from_bytes(empty), Err(CheckpointError::Truncated { .. })));

    // The engine-level restore wraps the typed error instead of panicking.
    assert!(matches!(
        AnytimeEngine::restore(&bad_magic[..], EngineConfig::deterministic(2)),
        Err(CoreError::Checkpoint(CheckpointError::BadMagic { .. }))
    ));
}

#[test]
fn crc_flip_in_a_row_payload_is_a_crc_mismatch() {
    let mut b = GraphBuilder::with_vertices(6);
    b.edge(0, 1, 2).edge(1, 2, 3).edge(2, 3, 1).edge(3, 4, 4).edge(4, 5, 1);
    let g = b.build().unwrap();
    let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(2)).unwrap();
    engine.run_to_convergence();
    let mut bytes = engine.checkpoint_bytes().unwrap();
    // Corrupt a distance deep inside the last RNKS section payload: the
    // length prefix stays valid, so the CRC check must catch it.
    let i = bytes.len() - 12;
    bytes[i] ^= 0x01;
    assert!(matches!(Snapshot::from_bytes(&bytes), Err(CheckpointError::CrcMismatch { .. })));
}
