//! The paper's future-work extensions: dynamic vertex deletions and
//! explicit load rebalancing.

use anytime_anywhere::core::changes::preferential_batch;
use anytime_anywhere::core::{
    AnytimeEngine, AssignStrategy, DynamicChange, EngineConfig, RebalancePolicy,
};
use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::{AdjGraph, Csr};
use anytime_anywhere::partition::vertex_balance;

fn isolate(g: &mut AdjGraph, v: u32) {
    let nbrs: Vec<u32> = g.neighbors(v).iter().map(|&(t, _)| t).collect();
    for t in nbrs {
        g.remove_edge(v, t).unwrap();
    }
}

#[test]
fn vertex_deletion_matches_scratch_on_isolated_graph() {
    let g = barabasi_albert(60, 2, WeightModel::Unit, 9).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.run_to_convergence();

    let victims = [3u32, 17, 40];
    engine.remove_vertices(&victims).unwrap();
    engine.run_to_convergence();

    let mut expected = g.clone();
    for &v in &victims {
        isolate(&mut expected, v);
    }
    let reference = apsp_dijkstra(&Csr::from_adj(&expected));
    assert_eq!(engine.distances(), reference);
    // Deleted vertices have closeness 0; the rest match the reduced graph.
    let c = engine.closeness();
    for &v in &victims {
        assert_eq!(c[v as usize], 0.0);
    }
}

#[test]
fn deleting_a_hub_changes_other_centralities() {
    let g = barabasi_albert(80, 2, WeightModel::Unit, 15).unwrap();
    let hub = (0..80u32).max_by_key(|&v| g.degree(v)).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.run_to_convergence();
    let before = engine.closeness();
    engine.remove_vertices(&[hub]).unwrap();
    engine.run_to_convergence();
    let after = engine.closeness();
    assert_eq!(after[hub as usize], 0.0);
    assert_ne!(before, after);
}

#[test]
fn deletion_then_addition_round_trip() {
    let g = barabasi_albert(50, 2, WeightModel::Unit, 21).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(3)).unwrap();
    engine.run_to_convergence();
    engine
        .apply_change(&DynamicChange::RemoveVertices(vec![5, 6]), AssignStrategy::RoundRobin)
        .unwrap();
    engine.rc_step();
    let batch = preferential_batch(engine.graph(), 4, 2, 33);
    engine.apply_vertex_additions(&batch, AssignStrategy::CutEdge { seed: 0, tries: 2 }).unwrap();
    engine.run_to_convergence();

    let mut expected = g.clone();
    isolate(&mut expected, 5);
    isolate(&mut expected, 6);
    let base = expected.num_vertices() as u32;
    expected.add_vertices(batch.len());
    for (a, b, w) in batch.global_edges(base) {
        expected.add_edge(a, b, w).unwrap();
    }
    assert_eq!(engine.distances(), apsp_dijkstra(&Csr::from_adj(&expected)));
}

#[test]
fn invalid_deletions_are_rejected() {
    let g = barabasi_albert(20, 2, WeightModel::Unit, 1).unwrap();
    let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(2)).unwrap();
    assert!(engine.remove_vertices(&[99]).is_err());
    // Deleting an already-isolated vertex twice is fine (idempotent).
    engine.remove_vertices(&[0]).unwrap();
    engine.remove_vertices(&[0]).unwrap();
    engine.run_to_convergence();
    assert_eq!(engine.closeness()[0], 0.0);
}

/// Drives the same skewed CutEdge stream into an engine; returns after the
/// stream without converging so the caller controls the final steps.
fn feed_skewed_stream(engine: &mut AnytimeEngine, rounds: u64) {
    for seed in 0..rounds {
        let batch = preferential_batch(engine.graph(), 6, 2, 70 + seed);
        engine.apply_vertex_additions(&batch, AssignStrategy::CutEdge { seed, tries: 1 }).unwrap();
        engine.rc_step();
    }
}

#[test]
fn background_rebalancer_preserves_bit_identical_fixed_point() {
    let g = barabasi_albert(90, 2, WeightModel::Unit, 11).unwrap();
    let mut cfg = EngineConfig::deterministic(4);
    cfg.rebalance = RebalancePolicy::Adaptive;
    let mut adaptive = AnytimeEngine::new(g.clone(), cfg).unwrap();
    let mut oracle = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
    // Same change stream into both: graph evolution is independent of the
    // partition, so only the ownership maps diverge.
    feed_skewed_stream(&mut adaptive, 5);
    feed_skewed_stream(&mut oracle, 5);
    adaptive.run_to_convergence();
    oracle.run_to_convergence();
    let stats = adaptive.stats();
    assert!(stats.migrations > 0, "the background rebalancer never fired");
    assert!(stats.migrated_rows > 0);
    assert!(stats.migration_bytes > 0, "migration traffic must be priced");
    // The migrated run lands on the byte-identical fixed point: closeness
    // is a deterministic function of the exact distance matrix, which is
    // partition-independent.
    let a = adaptive.closeness();
    let b = oracle.closeness();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(adaptive.distances(), oracle.distances());
    // And the whole point: the adaptive run is no more imbalanced than the
    // static one.
    let imb_adaptive = vertex_balance(adaptive.partition());
    let imb_static = vertex_balance(oracle.partition());
    assert!(
        imb_adaptive <= imb_static + 1e-9,
        "adaptive ({imb_adaptive}) worse than static ({imb_static})"
    );
}

#[test]
fn static_policy_never_migrates() {
    let g = barabasi_albert(60, 2, WeightModel::Unit, 5).unwrap();
    let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
    feed_skewed_stream(&mut engine, 4);
    engine.run_to_convergence();
    let stats = engine.stats();
    assert_eq!(stats.migrations, 0);
    assert_eq!(stats.migrated_rows, 0);
    assert_eq!(stats.migration_bytes, 0);
}

#[test]
fn rebalance_restores_balance_after_skewed_additions() {
    let g = barabasi_albert(100, 2, WeightModel::Unit, 4).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.run_to_convergence();

    // Skew the partition: several batches under CutEdge-PS with all-internal
    // community structure can pile onto few processors.
    for seed in 0..6u64 {
        let batch = preferential_batch(engine.graph(), 8, 2, 50 + seed);
        engine.apply_vertex_additions(&batch, AssignStrategy::CutEdge { seed, tries: 1 }).unwrap();
        engine.rc_step();
    }
    let skewed = vertex_balance(engine.partition());

    engine.rebalance(7).unwrap();
    engine.run_to_convergence();
    let rebalanced = vertex_balance(engine.partition());
    assert!(rebalanced <= skewed + 1e-9, "rebalance made things worse: {skewed} -> {rebalanced}");
    assert!(rebalanced <= 1.2, "still imbalanced: {rebalanced}");

    // And correctness is preserved.
    let reference = apsp_dijkstra(&Csr::from_adj(engine.graph()));
    assert_eq!(engine.distances(), reference);
}
