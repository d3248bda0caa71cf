//! The companion dynamic-edge strategies: additions [9], deletions [10],
//! weight changes [7] — each must converge to the from-scratch answer on
//! the final graph.

use anytime_anywhere::core::{
    AnytimeEngine, AssignStrategy, DynamicChange, EngineConfig, NewVertex, VertexBatch, WireFormat,
};
use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::generators::{barabasi_albert, erdos_renyi, WeightModel};
use anytime_anywhere::graph::{AdjGraph, Csr};
use anytime_anywhere::runtime::ExecutionMode;

fn assert_matches_reference(engine: &mut AnytimeEngine, expected_graph: &AdjGraph) {
    let summary = engine.run_to_convergence();
    assert!(summary.converged);
    let reference = apsp_dijkstra(&Csr::from_adj(expected_graph));
    assert_eq!(engine.distances(), reference);
}

#[test]
fn edge_addition_mid_analysis() {
    let g = barabasi_albert(80, 2, WeightModel::Unit, 3).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.rc_step();
    // Find a non-edge pair far apart.
    let (u, v) = (0u32, 79u32);
    let mut full = g.clone();
    if !full.has_edge(u, v) {
        full.add_edge(u, v, 1).unwrap();
        engine.add_edge(u, v, 1).unwrap();
    }
    assert_matches_reference(&mut engine, &full);
}

#[test]
fn many_edge_additions_connect_components() {
    // Disconnected ER graph; add bridges dynamically.
    let g = erdos_renyi(60, 25, WeightModel::Unit, 5).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.run_to_convergence();
    let mut full = g.clone();
    for i in 0..10u32 {
        let (u, v) = (i, 59 - i);
        if u != v && !full.has_edge(u, v) {
            full.add_edge(u, v, 2).unwrap();
            engine.add_edge(u, v, 2).unwrap();
        }
    }
    assert_matches_reference(&mut engine, &full);
}

#[test]
fn edge_deletion_invalidates_selectively() {
    // A pendant vertex 60 hangs off the 60-vertex graph by one leaf edge.
    let mut g = barabasi_albert(60, 3, WeightModel::Unit, 7).unwrap();
    g.add_vertices(1);
    g.add_edge(60, 0, 1).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.run_to_convergence();
    let (u, v, _) = g.edges().next().unwrap();
    let mut full = g.clone();
    full.remove_edge(u, v).unwrap();
    engine.remove_edge(u, v).unwrap();
    assert_matches_reference(&mut engine, &full);

    // Only the leaf's row and the leaf's column ever used the leaf edge:
    // removing it raises 2(n − 1) cells of the n × n matrix, not n².
    let before = engine.invalidation_tally();
    assert_eq!(before.changes, 1);
    full.remove_edge(60, 0).unwrap();
    engine.remove_edge(60, 0).unwrap();
    let after = engine.invalidation_tally();
    assert_eq!(after.changes, 2);
    assert_eq!(after.rows_raised - before.rows_raised, 61);
    assert_eq!(after.cells_raised - before.cells_raised, 2 * 60);
    assert_eq!(after.cells_refilled, before.cells_refilled, "nothing reaches an isolated vertex");
    assert_matches_reference(&mut engine, &full);
}

#[test]
fn weight_decrease_is_incremental() {
    let g = barabasi_albert(70, 2, WeightModel::UniformRange { lo: 3, hi: 9 }, 11).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.run_to_convergence();
    let (u, v, _) = g.edges().nth(5).unwrap();
    let mut full = g.clone();
    full.set_weight(u, v, 1).unwrap();
    engine.set_edge_weight(u, v, 1).unwrap();
    assert_matches_reference(&mut engine, &full);
}

#[test]
fn weight_increase_invalidates_and_recovers() {
    let g = barabasi_albert(60, 2, WeightModel::Unit, 13).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.run_to_convergence();
    let (u, v, _) = g.edges().next().unwrap();
    let mut full = g.clone();
    full.set_weight(u, v, 50).unwrap();
    engine.set_edge_weight(u, v, 50).unwrap();
    assert_matches_reference(&mut engine, &full);
}

#[test]
fn mixed_change_stream_via_apply_change() {
    let g = barabasi_albert(50, 2, WeightModel::Unit, 17).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(3)).unwrap();
    let mut full = g.clone();
    engine.rc_step();

    // Addition.
    if !full.has_edge(3, 47) {
        full.add_edge(3, 47, 2).unwrap();
        engine
            .apply_change(&DynamicChange::AddEdge { u: 3, v: 47, w: 2 }, AssignStrategy::RoundRobin)
            .unwrap();
    }
    engine.rc_step();
    // Weight change.
    let (u, v, _) = full.edges().nth(3).unwrap();
    full.set_weight(u, v, 4).unwrap();
    engine
        .apply_change(&DynamicChange::SetWeight { u, v, w: 4 }, AssignStrategy::RoundRobin)
        .unwrap();
    engine.rc_step();
    // Deletion.
    let (u, v, _) = full.edges().nth(10).unwrap();
    full.remove_edge(u, v).unwrap();
    engine.apply_change(&DynamicChange::RemoveEdge { u, v }, AssignStrategy::RoundRobin).unwrap();

    assert_matches_reference(&mut engine, &full);
}

/// A drain relaxes once. A mixed burst — a vertex batch, an `AddEdge`, a
/// `RemoveEdge` and a weight increase — drained at once makes at most one
/// kernel call per rank and costs exactly three supersteps fewer than the
/// same burst drained one change at a time, whose four drains settle four
/// times. Both converge to the exact distances and closeness, bit for bit,
/// on either wire and either executor.
#[test]
fn a_burst_drained_at_once_settles_once_and_converges_like_one_change_at_a_time() {
    let g = barabasi_albert(90, 2, WeightModel::UniformRange { lo: 1, hi: 5 }, 23).unwrap();
    let (a, b, w) = g.edges().nth(7).unwrap();
    let (c, d, _) = g.edges().nth(40).unwrap();
    let (x, y) = (3, 88);
    assert!(!g.has_edge(x, y));
    let batch = VertexBatch {
        vertices: vec![
            NewVertex { edges: vec![(0, 2), (51, 1)] },
            NewVertex { edges: vec![(90, 3)] },
        ],
    };
    let burst = [
        DynamicChange::AddVertices(batch.clone()),
        DynamicChange::AddEdge { u: x, v: y, w: 2 },
        DynamicChange::RemoveEdge { u: c, v: d },
        DynamicChange::SetWeight { u: a, v: b, w: w + 3 },
    ];
    let mut full = g.clone();
    full.add_vertices(batch.len());
    for (s, t, w) in batch.global_edges(90) {
        full.add_edge(s, t, w).unwrap();
    }
    full.add_edge(x, y, 2).unwrap();
    full.remove_edge(c, d).unwrap();
    full.set_weight(a, b, w + 3).unwrap();
    let csr = Csr::from_adj(&full);
    let (exact, exact_closeness) = (apsp_dijkstra(&csr), closeness_exact(&csr));

    for wire in [WireFormat::Full, WireFormat::Delta] {
        for mode in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
            let mut config = EngineConfig::deterministic(4);
            config.wire = wire;
            config.cluster.mode = mode;
            let run = |at_once: bool| {
                let mut engine = AnytimeEngine::new(g.clone(), config.clone()).unwrap();
                engine.rc_step();
                let (stats, tally) = (engine.stats(), engine.kernel_tally());
                for change in &burst {
                    engine
                        .submit_with_strategy(change.clone(), AssignStrategy::RoundRobin)
                        .unwrap();
                    if !at_once {
                        engine.drain_changes().unwrap();
                    }
                }
                engine.drain_changes().unwrap();
                assert_eq!(engine.ingest_stats().applied, 4);
                let supersteps = engine.stats().supersteps - stats.supersteps;
                let calls = engine.kernel_tally().calls - tally.calls;
                assert!(engine.run_to_convergence().converged);
                (supersteps, calls, engine.distances(), engine.closeness())
            };
            let ctx = format!("{wire:?}, {mode:?}");
            let (once, apart) = (run(true), run(false));
            assert!(once.1 > 0 && once.1 <= 4, "{ctx}: {} kernel calls over 4 ranks", once.1);
            assert_eq!(apart.0 - once.0, 3, "{ctx}: settle steps saved");
            assert!(once.2 == exact && apart.2 == exact, "{ctx}: distances");
            for closeness in [&once.3, &apart.3] {
                let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(closeness), bits(&exact_closeness), "{ctx}: closeness");
            }
        }
    }
}

#[test]
fn bad_edge_operations_error_cleanly() {
    let g = barabasi_albert(20, 2, WeightModel::Unit, 1).unwrap();
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(2)).unwrap();
    let (u, v, _) = g.edges().next().unwrap();
    assert!(engine.add_edge(u, v, 1).is_err()); // duplicate
    assert!(engine.add_edge(0, 0, 1).is_err()); // self-loop
                                                // Removing (0, 19) must error iff the edge is absent; if it happens to
                                                // exist (it does for this seed), mirror the removal into the reference.
    let mut expected = g.clone();
    match engine.remove_edge(0, 19) {
        Ok(()) => expected.remove_edge(0, 19).unwrap(),
        Err(_) => assert!(!g.has_edge(0, 19)),
    }
    assert!(engine.set_edge_weight(0, 0, 2).is_err());
    // Still functional.
    assert_matches_reference(&mut engine, &expected);
}
