//! The paper's core claim, verified end-to-end: incorporating vertex
//! additions mid-analysis (any strategy, any injection point) converges to
//! exactly the same closeness values as restarting from scratch on the
//! final graph.

use anytime_anywhere::core::changes::{community_batch, preferential_batch, CommunityBatchParams};
use anytime_anywhere::core::{AnytimeEngine, AssignStrategy, EngineConfig, NewVertex, VertexBatch};
use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::{AdjGraph, Csr};

fn final_graph_of(g: &AdjGraph, batch: &VertexBatch) -> AdjGraph {
    let mut full = g.clone();
    let base = full.num_vertices() as u32;
    full.add_vertices(batch.len());
    for (a, b, w) in batch.global_edges(base) {
        full.add_edge(a, b, w).unwrap();
    }
    full
}

fn assert_dynamic_matches_scratch(
    g: &AdjGraph,
    batch: &VertexBatch,
    strategy: AssignStrategy,
    inject_after_steps: usize,
    procs: usize,
) {
    let full = final_graph_of(g, batch);
    let reference = apsp_dijkstra(&Csr::from_adj(&full));

    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(procs)).unwrap();
    for _ in 0..inject_after_steps {
        engine.rc_step();
    }
    engine.apply_vertex_additions(batch, strategy).unwrap();
    let summary = engine.run_to_convergence();
    assert!(summary.converged, "{}: no convergence", strategy.name());

    let got = engine.distances();
    let n = full.num_vertices();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            assert_eq!(
                got.get(u, v),
                reference.get(u, v),
                "{} injected@{}: d({u},{v})",
                strategy.name(),
                inject_after_steps
            );
        }
    }
}

fn strategies() -> [AssignStrategy; 3] {
    [
        AssignStrategy::RoundRobin,
        AssignStrategy::CutEdge { seed: 1, tries: 2 },
        AssignStrategy::Repartition { seed: 1 },
    ]
}

#[test]
fn preferential_additions_every_strategy_early_injection() {
    let g = barabasi_albert(80, 2, WeightModel::Unit, 4).unwrap();
    let batch = preferential_batch(&g, 12, 2, 9);
    for s in strategies() {
        assert_dynamic_matches_scratch(&g, &batch, s, 0, 4);
    }
}

#[test]
fn preferential_additions_every_strategy_late_injection() {
    let g = barabasi_albert(80, 2, WeightModel::Unit, 4).unwrap();
    let batch = preferential_batch(&g, 12, 2, 10);
    for s in strategies() {
        // Inject after the static analysis has fully converged.
        assert_dynamic_matches_scratch(&g, &batch, s, 8, 4);
    }
}

#[test]
fn community_structured_additions() {
    let g = barabasi_albert(100, 2, WeightModel::Unit, 7).unwrap();
    let params =
        CommunityBatchParams { count: 30, community_size: 10, seed: 5, ..Default::default() };
    let (batch, _) = community_batch(&g, &params);
    for s in strategies() {
        assert_dynamic_matches_scratch(&g, &batch, s, 2, 4);
    }
}

#[test]
fn weighted_graph_additions() {
    let g = barabasi_albert(70, 2, WeightModel::UniformRange { lo: 1, hi: 5 }, 8).unwrap();
    let mut batch = preferential_batch(&g, 10, 2, 3);
    // Give the new edges varied weights.
    for (i, nv) in batch.vertices.iter_mut().enumerate() {
        for (j, e) in nv.edges.iter_mut().enumerate() {
            e.1 = 1 + ((i + j) % 4) as u32;
        }
    }
    for s in strategies() {
        assert_dynamic_matches_scratch(&g, &batch, s, 1, 3);
    }
}

#[test]
fn incremental_batches_across_many_steps() {
    // Fig. 8 shape: several small batches at successive RC steps.
    let g = barabasi_albert(60, 2, WeightModel::Unit, 12).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    let mut full = g.clone();
    for step in 0..5u64 {
        engine.rc_step();
        let batch = preferential_batch(&full, 5, 2, 100 + step);
        let base = full.num_vertices() as u32;
        full.add_vertices(batch.len());
        for (a, b, w) in batch.global_edges(base) {
            full.add_edge(a, b, w).unwrap();
        }
        engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).unwrap();
    }
    engine.run_to_convergence();
    let reference = apsp_dijkstra(&Csr::from_adj(&full));
    assert_eq!(engine.distances(), reference);
}

#[test]
fn new_vertex_chains_connect_through_each_other() {
    // A chain of new vertices where only the first touches the old graph:
    // distances must propagate through batch-internal edges.
    let g = barabasi_albert(40, 2, WeightModel::Unit, 3).unwrap();
    let base = 40u32;
    let batch = VertexBatch {
        vertices: vec![
            NewVertex { edges: vec![(0, 1)] },        // 40 - old 0
            NewVertex { edges: vec![(base, 1)] },     // 41 - 40
            NewVertex { edges: vec![(base + 1, 1)] }, // 42 - 41
            NewVertex { edges: vec![(base + 2, 1)] }, // 43 - 42
        ],
    };
    for s in strategies() {
        assert_dynamic_matches_scratch(&g, &batch, s, 0, 4);
    }
}

#[test]
fn isolated_new_vertices() {
    let g = barabasi_albert(30, 2, WeightModel::Unit, 2).unwrap();
    let batch = VertexBatch { vertices: (0..6).map(|_| NewVertex { edges: vec![] }).collect() };
    for s in strategies() {
        assert_dynamic_matches_scratch(&g, &batch, s, 1, 3);
    }
}

#[test]
fn empty_batch_is_a_noop() {
    let g = barabasi_albert(30, 2, WeightModel::Unit, 2).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(3)).unwrap();
    engine.run_to_convergence();
    let before = engine.stats().messages;
    engine.apply_vertex_additions(&VertexBatch::default(), AssignStrategy::RoundRobin).unwrap();
    assert_eq!(engine.stats().messages, before);
    assert_eq!(engine.graph().num_vertices(), 30);
}

#[test]
fn invalid_batches_are_rejected_without_damage() {
    let g = barabasi_albert(30, 2, WeightModel::Unit, 2).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(3)).unwrap();
    let bad = VertexBatch { vertices: vec![NewVertex { edges: vec![(99, 1)] }] };
    assert!(engine.apply_vertex_additions(&bad, AssignStrategy::RoundRobin).is_err());
    assert_eq!(engine.graph().num_vertices(), 30);
    // Engine still works afterwards.
    engine.run_to_convergence();
    assert_eq!(engine.closeness().len(), 30);
}

#[test]
fn round_robin_balances_across_batches() {
    let g = barabasi_albert(40, 2, WeightModel::Unit, 6).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    for seed in 0..4u64 {
        let batch = preferential_batch(engine.graph(), 3, 1, seed);
        engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).unwrap();
    }
    // 12 new vertices over 4 procs round-robin: each part got exactly 3.
    let sizes = engine.partition().part_sizes();
    let baseline =
        AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap().partition().part_sizes();
    for (after, before) in sizes.iter().zip(&baseline) {
        assert_eq!(after - before, 3);
    }
}

/// A wave ships each distinct endpoint row once. Three new vertices with
/// five edges name five distinct endpoints (vertex 0 thrice, vertex 60
/// twice): the wave costs the grow broadcast, one broadcast per distinct
/// endpoint — not two per edge — one step absorbing all five edges and the
/// drain's one settle step, and converges to the exact distances.
#[test]
fn a_wave_broadcasts_each_distinct_endpoint_once() {
    let g = barabasi_albert(60, 2, WeightModel::Unit, 5).unwrap();
    let batch = VertexBatch {
        vertices: vec![
            NewVertex { edges: vec![(0, 1), (7, 1)] },
            NewVertex { edges: vec![(0, 1)] },
            NewVertex { edges: vec![(60, 1), (0, 2)] },
        ],
    };
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.rc_step();
    let before = engine.stats();
    engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).unwrap();
    let after = engine.stats();
    assert_eq!(after.collectives - before.collectives, 1 + 5);
    assert_eq!(after.supersteps - before.supersteps, 1 + 5 + 1 + 1);
    assert!(engine.run_to_convergence().converged);
    assert_eq!(engine.distances(), apsp_dijkstra(&Csr::from_adj(&final_graph_of(&g, &batch))));
}
