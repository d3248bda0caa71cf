//! Exact ranks merge cached rows without recording them. Once an engine has
//! converged, every local row is exact, and a merge into a cache lowers
//! cells that no pass can carry further, so the two cached merges leave
//! the unpropagated record alone until a change withdraws the claim. These
//! programs hold that against the oracle. Each converges a BA graph, then
//! absorbs random additive changes on either wire: RoundRobin and CutEdge
//! waves of community batches with their edges shuffled, edge additions
//! and weight decreases. Among them sit one edge removal, one checkpoint →
//! restore round trip and one Repartition-S wave that migrates nothing.
//! After every convergence the rows equal exact APSP bit for bit.

use anytime_anywhere::core::changes::{community_batch, preferential_batch, CommunityBatchParams};
use anytime_anywhere::core::{
    AnytimeEngine, AssignStrategy, EngineConfig, NewVertex, VertexBatch, WireFormat,
};
use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::{AdjGraph, Csr, VertexId};
use anytime_anywhere::partition::{MultilevelPartitioner, Partition, Partitioner};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A community batch of `count` new vertices for `g`, reweighted 1–3 and
/// shuffled: each edge between two new vertices is listed by either end,
/// and every list is in random order.
fn shuffled_batch(g: &AdjGraph, count: usize, rng: &mut ChaCha8Rng) -> VertexBatch {
    let params = CommunityBatchParams {
        count,
        community_size: 4,
        p_in: 0.6,
        p_out: 0.05,
        attach_edges: rng.gen_range(1..3),
        seed: rng.gen(),
    };
    let (batch, _) = community_batch(g, &params);
    let base = g.num_vertices() as VertexId;
    let mut vertices = vec![NewVertex { edges: Vec::new() }; count];
    for (i, nv) in batch.vertices.iter().enumerate() {
        let me = base + i as VertexId;
        for &(t, _) in &nv.edges {
            let w = rng.gen_range(1..4);
            if t >= base && rng.gen::<bool>() {
                vertices[(t - base) as usize].edges.push((me, w));
            } else {
                vertices[i].edges.push((t, w));
            }
        }
    }
    for nv in &mut vertices {
        nv.edges.shuffle(rng);
    }
    VertexBatch { vertices }
}

/// `g` with `batch` applied, as the engine's driver applies it.
fn with_batch(g: &AdjGraph, batch: &VertexBatch) -> AdjGraph {
    let mut grown = g.clone();
    let base = grown.num_vertices() as VertexId;
    grown.add_vertices(batch.len());
    for (a, b, w) in batch.global_edges(base) {
        grown.add_edge(a, b, w).expect("a valid batch");
    }
    grown
}

/// Runs `engine` to convergence and holds its rows to exact APSP on `full`.
fn converge(engine: &mut AnytimeEngine, full: &AdjGraph, ctx: &str) {
    assert!(engine.run_to_convergence().converged, "{ctx}: no convergence");
    assert!(engine.graph().edges().eq(full.edges()), "{ctx}: driver graph diverged");
    assert!(engine.distances() == apsp_dijkstra(&Csr::from_adj(full)), "{ctx}: rows are not APSP");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn additive_programs_on_an_exact_engine_end_at_exact_apsp(
        n in 40usize..=120,
        p in 2usize..=6,
        delta_wire in 0u8..2,
        seed in 0u64..u64::MAX,
        program in proptest::collection::vec(0u8..4, 3..9),
        remove_at in 0usize..8,
        restore_at in 0usize..8,
    ) {
        let (remove_at, restore_at) = (remove_at % program.len(), restore_at % program.len());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut full = barabasi_albert(n, 2, WeightModel::UniformRange { lo: 1, hi: 3 }, seed)
            .expect("generator");
        let mut config = EngineConfig::deterministic(p);
        config.wire = if delta_wire == 1 { WireFormat::Delta } else { WireFormat::Full };
        let case = format!("n {n}, P {p}, {:?} wire, seed {seed}", config.wire);

        // A Repartition-S wave that migrates nothing: the engine starts on
        // the fresh partition of the graph with the wave, restricted to the
        // graph without it, so the wave's move list is empty and it only
        // seeds its edges.
        let wave = shuffled_batch(&full, rng.gen_range(2..6), &mut rng);
        let grown = with_batch(&full, &wave);
        let repartition = rng.gen();
        let fresh = MultilevelPartitioner::seeded(repartition).partition(&grown, p).unwrap();
        let start = Partition::new(fresh.assignment()[..n].to_vec(), p).unwrap();
        let mut engine = AnytimeEngine::with_partition(full.clone(), start, config.clone()).unwrap();
        converge(&mut engine, &full, &format!("{case}: start"));
        let strategy = AssignStrategy::Repartition { seed: repartition };
        engine.apply_vertex_additions(&wave, strategy).unwrap();
        prop_assert_eq!(engine.stats().migrations, 0);
        full = grown;
        converge(&mut engine, &full, &format!("{case}: Repartition-S"));

        for (step, &op) in program.iter().enumerate() {
            if step == remove_at {
                let edge = rng.gen_range(0..full.num_edges());
                let (u, v, _) = full.edges().nth(edge).expect("in range");
                full.remove_edge(u, v).unwrap();
                engine.remove_edge(u, v).unwrap();
                converge(&mut engine, &full, &format!("{case}: step {step} RemoveEdge"));
            }
            if step == restore_at {
                let bytes = engine.checkpoint_bytes().unwrap();
                let restored = AnytimeEngine::restore(&bytes[..], config.clone()).unwrap();
                prop_assert!(restored.distances() == engine.distances(), "{case}: restored rows");
                engine = restored;
            }
            let ctx = format!("{case}: step {step} op {op}");
            match op {
                0 | 1 => {
                    let batch = shuffled_batch(&full, rng.gen_range(2..7), &mut rng);
                    let strategy = if op == 0 {
                        AssignStrategy::RoundRobin
                    } else {
                        AssignStrategy::CutEdge { seed: rng.gen(), tries: 1 }
                    };
                    full = with_batch(&full, &batch);
                    engine.apply_vertex_additions(&batch, strategy).unwrap();
                }
                2 => {
                    let m = full.num_vertices();
                    let (u, v) = (rng.gen_range(0..m) as VertexId, rng.gen_range(0..m) as VertexId);
                    if u != v && !full.has_edge(u, v) {
                        let w = rng.gen_range(1..4);
                        full.add_edge(u, v, w).unwrap();
                        engine.add_edge(u, v, w).unwrap();
                    }
                }
                _ => {
                    let heavy: Vec<_> = full.edges().filter(|&(_, _, w)| w > 1).collect();
                    if let Some(&(u, v, w)) = heavy.choose(&mut rng) {
                        let lighter = rng.gen_range(1..w);
                        full.set_weight(u, v, lighter).unwrap();
                        engine.set_edge_weight(u, v, lighter).unwrap();
                    }
                }
            }
            converge(&mut engine, &full, &ctx);
        }
    }
}

/// The refresh step, the RC step after a wave's drain, runs no kernel on
/// an exact engine: the drain's settle left every local row exact, so the
/// rows the step merges into the caches seed nothing. A removal withdraws
/// the claim until the engine converges again, and the same step then
/// relaxes what it merged.
#[test]
fn a_wave_refresh_step_runs_no_kernel_on_an_exact_engine_only() {
    for wire in [WireFormat::Full, WireFormat::Delta] {
        let mut config = EngineConfig::deterministic(4);
        config.wire = wire;
        let g = barabasi_albert(200, 3, WeightModel::Unit, 5).expect("generator");
        let mut engine = AnytimeEngine::new(g, config).unwrap();
        assert!(engine.run_to_convergence().converged);
        let refresh_calls = |engine: &mut AnytimeEngine, seed: u64| {
            let batch = preferential_batch(engine.graph(), 10, 2, seed);
            engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).unwrap();
            let before = engine.kernel_tally().calls;
            engine.rc_step();
            engine.kernel_tally().calls - before
        };
        assert_eq!(refresh_calls(&mut engine, 1), 0, "{wire:?}: on a converged engine");
        assert!(engine.run_to_convergence().converged);
        let (u, v, _) = engine.graph().edges().next().expect("an edge");
        engine.remove_edge(u, v).unwrap();
        assert!(refresh_calls(&mut engine, 2) > 0, "{wire:?}: after a removal");
    }
}
