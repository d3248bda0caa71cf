//! A checkpoint is one pass each way. The engine's streaming writer must
//! produce the bytes the `Snapshot` writer produces, for engines of every
//! shape. A restore, streamed or from an in-memory snapshot, must leave
//! the state the previous restore path left, down to the chunk bounds the
//! kernel's work depends on. Hostile bytes through `AnytimeEngine::restore`
//! must fail as `Snapshot::from_bytes` fails, and never panic. A snapshot
//! whose sections disagree is `Malformed` on every entry point.

use anytime_anywhere::checkpoint::{crc32, CheckpointError, RowTable, Snapshot, MAGIC};
use anytime_anywhere::core::changes::preferential_batch;
use anytime_anywhere::core::dv::KernelTally;
use anytime_anywhere::core::{
    AnytimeEngine, AssignStrategy, CoreError, EngineConfig, MetricKind, WireFormat,
};
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::{AdjGraph, GraphBuilder, INF};
use proptest::prelude::*;
use std::mem::discriminant;

fn ba_engine(n: usize, procs: usize, seed: u64, config: &EngineConfig) -> AnytimeEngine {
    let g = barabasi_albert(n, 3, WeightModel::Unit, seed).expect("generator");
    assert_eq!(config.procs, procs);
    AnytimeEngine::new(g, config.clone()).expect("engine")
}

/// What `checkpoint_bytes`, `checkpoint` into a `Vec` and
/// `snapshot().to_bytes()` write for the same state. Each call counts one
/// more checkpoint in STAT, so the snapshot's count is set back to each
/// streamed call's before it is encoded.
fn assert_writers_agree(engine: &mut AnytimeEngine, ctx: &str) -> Snapshot {
    let before = engine.stats().checkpoints;
    let streamed = engine.checkpoint_bytes().expect("checkpoint_bytes");
    let mut written = Vec::new();
    engine.checkpoint(&mut written).expect("checkpoint");
    let mut snap = engine.snapshot();
    assert_eq!(snap.stats.checkpoints, before + 3, "{ctx}: each call counts one checkpoint");
    snap.stats.checkpoints = before + 1;
    assert!(streamed == snap.to_bytes().unwrap(), "{ctx}: checkpoint_bytes differs");
    snap.stats.checkpoints = before + 2;
    assert!(written == snap.to_bytes().unwrap(), "{ctx}: checkpoint(w) differs");
    snap
}

#[test]
fn the_streaming_writer_matches_the_snapshot_writer_byte_for_byte() {
    let (mut dirty_seen, mut pending_seen) = (false, false);
    for wire in [WireFormat::Full, WireFormat::Delta] {
        for metrics in [vec![], vec![MetricKind::Betweenness]] {
            let mut config = EngineConfig::deterministic(4);
            config.wire = wire;
            config.metrics = metrics.clone();
            let ctx = format!("{wire:?} wire, metrics {metrics:?}");
            let mut engine = ba_engine(120, 4, 5, &config);
            let mut stage = |engine: &mut AnytimeEngine, at: &str| {
                let snap = assert_writers_agree(engine, &format!("{ctx}, {at}"));
                assert_eq!(snap.metrics.is_empty(), metrics.is_empty(), "{ctx}: METR section");
                dirty_seen |= snap.ranks.iter().any(|r| !r.dirty.is_empty());
                pending_seen |= snap.ranks.iter().any(|r| !r.pending.is_empty());
            };
            stage(&mut engine, "after IA");
            engine.rc_step();
            stage(&mut engine, "after one RC step");
            let batch = preferential_batch(engine.graph(), 12, 2, 11);
            engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("wave");
            stage(&mut engine, "after a RoundRobin wave");
            engine.run_to_convergence();
            let batch = preferential_batch(engine.graph(), 12, 2, 12);
            let repartition = AssignStrategy::Repartition { seed: 3 };
            engine.apply_vertex_additions(&batch, repartition).expect("wave");
            stage(&mut engine, "after a Repartition wave");
            engine.run_to_convergence();
            let (u, v, _) = engine.graph().edges().nth(7).expect("an edge");
            engine.remove_edge(u, v).expect("remove_edge");
            stage(&mut engine, "after remove_edge");
        }
    }
    assert!(dirty_seen && pending_seen, "no stage had dirty ({dirty_seen}) or pending rows");
}

/// The kernel work of one RoundRobin wave plus `run_to_convergence` on the
/// restored engine of the test below. `chunks_relaxed` depends on how
/// tight the restored chunk bounds are, so this pins them as well as the
/// rows. The snapshot is of a converged engine, so it carries the EXCT
/// flag: the restored ranks merge the wave's broadcast rows and the
/// refresh step's rows without recording them, and only the wave's own
/// absorbs seed the kernel.
const WAVE_AFTER_RESTORE: KernelTally = KernelTally {
    calls: 4,
    rounds: 10,
    dense_passes: 26_253,
    chunks_scheduled: 157_518,
    chunks_relaxed: 53_493,
    sparse_passes: 23_985,
    list_passes_skipped: 23_243,
    cells: 3_100_005,
};

#[test]
fn a_restore_leaves_the_state_the_previous_restore_path_left() {
    let config = EngineConfig::deterministic(4);
    let mut live = ba_engine(300, 4, 40, &config);
    live.run_to_convergence();
    let snap = live.snapshot();
    let bytes = live.checkpoint_bytes().expect("checkpoint");
    let mut streamed = AnytimeEngine::restore(&bytes[..], config.clone()).expect("restore");
    let mut in_memory = AnytimeEngine::from_snapshot(&snap, config.clone()).expect("restore");

    let batch = preferential_batch(live.graph(), 30, 3, 41);
    let mut tallies = Vec::new();
    for (name, engine) in [("restore", &mut streamed), ("from_snapshot", &mut in_memory)] {
        assert_eq!(engine.distances(), live.distances(), "{name}: rows");
        assert_eq!(engine.closeness(), live.closeness(), "{name}: closeness");
        #[cfg(debug_assertions)]
        engine.check_admissible();
        // Rows, dirty and pending sets, rank by rank.
        let ranks = engine.snapshot().ranks;
        assert_eq!(ranks, snap.ranks, "{name}: rank state");

        assert_eq!(engine.kernel_tally(), KernelTally::default(), "{name}: a fresh store");
        engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("wave");
        assert!(engine.run_to_convergence().converged);
        tallies.push(engine.kernel_tally());
    }
    live.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("wave");
    live.run_to_convergence();
    assert_eq!(streamed.closeness(), live.closeness());
    assert_eq!(in_memory.distances(), live.distances());
    assert_eq!(tallies[0], tallies[1], "the two restores left different bounds");
    assert_eq!(tallies[0], WAVE_AFTER_RESTORE, "the restored bounds moved");
}

/// The engine of the inconsistent-snapshot tests: BA n = 60, P = 2,
/// converged.
fn converged_pair() -> (Snapshot, EngineConfig) {
    let config = EngineConfig::deterministic(2);
    let mut engine = ba_engine(60, 2, 60, &config);
    engine.run_to_convergence();
    (engine.snapshot(), config)
}

/// `snap` is `Malformed` through the file decoder, the streaming restore
/// and the in-memory restore alike.
fn assert_malformed_everywhere(snap: &Snapshot, config: &EngineConfig) {
    let bytes = snap.to_bytes().expect("the writer does not judge");
    let decoded = Snapshot::from_bytes(&bytes);
    assert!(matches!(decoded, Err(CheckpointError::Malformed(_))), "from_bytes: {decoded:?}");
    let malformed = |r: Result<AnytimeEngine, CoreError>| match r {
        Err(CoreError::Checkpoint(CheckpointError::Malformed(_))) => {}
        Err(e) => panic!("expected Malformed, got {e:?}"),
        Ok(_) => panic!("expected Malformed, got an engine"),
    };
    malformed(AnytimeEngine::restore(&bytes[..], config.clone()));
    malformed(AnytimeEngine::from_snapshot(snap, config.clone()));
}

#[test]
fn a_repeated_rank_section_is_malformed() {
    let (mut snap, config) = converged_pair();
    snap.ranks[1] = snap.ranks[0].clone();
    assert_malformed_everywhere(&snap, &config);
}

#[test]
fn a_rank_id_past_procs_is_malformed() {
    let (mut snap, config) = converged_pair();
    snap.ranks[1].rank = 7;
    assert_malformed_everywhere(&snap, &config);
}

#[test]
fn a_partition_with_more_parts_than_procs_is_malformed() {
    let (mut snap, config) = converged_pair();
    snap.partition.k = 3;
    snap.partition.assignment[5] = 2;
    assert_malformed_everywhere(&snap, &config);
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

/// `rows` with row `i` cut short by `cuts[i % len]` cells.
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
/// field and CRC trailer made good.
fn resealed(bytes: &[u8], at: usize, payload: &[u8]) -> Vec<u8> {
    let old = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
    let mut out = bytes[..at + 4].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&bytes[at + 12 + old + 4..]);
    out
}

/// Where `Snapshot::from_bytes` refuses `bytes`, `restore` refuses them
/// with the same `CheckpointError` class, through a slice and through a
/// trickling reader; where it accepts them, `restore` returns an engine or
/// any typed error. Neither may panic.
fn restore_fails_like_the_decoder(bytes: &[u8], config: &EngineConfig) -> Result<(), String> {
    let decoded = Snapshot::from_bytes(bytes);
    let restores = [
        AnytimeEngine::restore(bytes, config.clone()),
        AnytimeEngine::restore(Trickle { bytes, calls: 0 }, config.clone()),
    ];
    for restored in restores {
        match (&decoded, restored) {
            (Err(want), Err(CoreError::Checkpoint(got)))
                if discriminant(want) == discriminant(&got) => {}
            (Err(want), Err(got)) => return Err(format!("decoder {want:?}, restore {got:?}")),
            (Err(want), Ok(_)) => return Err(format!("decoder {want:?}, restore accepted")),
            (Ok(_), _) => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hostile_bytes_through_restore_fail_like_the_decoder(
        g in arb_graph_below(12),
        p in 1usize..4,
        steps in 0usize..3,
        cuts in proptest::collection::vec(0usize..14, 0..6),
        metrics in proptest::collection::vec(0u8..2, 0..3),
    ) {
        let config = EngineConfig::deterministic(p);
        let mut engine = AnytimeEngine::new(g, config.clone()).unwrap();
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
        let check = |b: &[u8]| restore_fails_like_the_decoder(b, &config);

        // Ragged rows come back INF-padded, as `from_snapshot` pads them.
        let in_memory = AnytimeEngine::from_snapshot(&snap, config.clone()).unwrap();
        for restored in [
            AnytimeEngine::restore(&bytes[..], config.clone()).unwrap(),
            AnytimeEngine::restore(Trickle { bytes: &bytes, calls: 0 }, config.clone()).unwrap(),
        ] {
            let rows = restored.distances();
            prop_assert_eq!(&rows, &in_memory.distances());
            let n = restored.graph().num_vertices();
            for (v, row) in snap.ranks.iter().flat_map(|r| r.local.iter()) {
                let mut padded = row.to_vec();
                padded.resize(n, INF);
                prop_assert_eq!(rows.row(v), &padded[..]);
            }
        }

        for cut in 0..bytes.len() {
            let r = check(&bytes[..cut]);
            prop_assert!(r.is_ok(), "cut {}: {:?}", cut, r);
        }
        for (at, tag, payload) in sections(&bytes) {
            let name = String::from_utf8_lossy(&tag).into_owned();
            for cut in 0..payload.len() {
                let cut_section = resealed(&bytes, at, &payload[..cut]);
                let r = check(&cut_section);
                prop_assert!(r.is_ok(), "{} cut at {}: {:?}", name, cut, r);
            }
            let mut bomb = payload.to_vec();
            for i in 0..payload.len().saturating_sub(7) {
                bomb[i..i + 8].copy_from_slice(&(u64::MAX >> 8).to_le_bytes());
                let bombed = resealed(&bytes, at, &bomb);
                let r = check(&bombed);
                prop_assert!(r.is_ok(), "{} bomb at {}: {:?}", name, i, r);
                bomb[i..i + 8].copy_from_slice(&payload[i..i + 8]);
            }
        }
        let mut bad = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            let r = check(&bad);
            prop_assert!(r.is_ok(), "bit {} of byte {}: {:?}", bit % 8, bit / 8, r);
            bad[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
