//! Repartition-S seeds its batch through the grown graph's landmark rows.
//! The wave announces the batch together with the exact rows of the grown
//! graph's landmarks, and every rank lowers each new row in every column,
//! and every older row in the new columns, to its shortest walk through a
//! landmark. On BA graphs, unit-weight and weighted (where the landmark
//! rows are Dijkstra rows), on 2, 4 and 16 ranks, injected after IA and
//! after convergence:
//! - right after the wave, before any RC step, every held cell is an upper
//!   bound with every chunk bound intact (`check_admissible`), and no row
//!   holds `INF` at a new vertex's column, nor a new row anywhere, because
//!   every new vertex attaches to the connected graph;
//! - the fixed point's closeness is the oracle's, bit for bit.

use anytime_anywhere::core::changes::{community_batch, CommunityBatchParams};
use anytime_anywhere::core::{AnytimeEngine, AssignStrategy, EngineConfig};
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::{Csr, VertexId, INF};

fn repartition_wave_is_seeded(weights: WeightModel, procs: usize, converged: bool, seed: u64) {
    let graph = barabasi_albert(160, 3, weights, seed).expect("generator");
    let mut engine = AnytimeEngine::new(graph, EngineConfig::deterministic(procs)).expect("engine");
    if converged {
        assert!(engine.run_to_convergence().converged);
    }
    let params = CommunityBatchParams {
        count: 40,
        community_size: 10,
        attach_edges: 2,
        seed,
        ..Default::default()
    };
    let (mut batch, _) = community_batch(engine.graph(), &params);
    if weights != WeightModel::Unit {
        for (i, nv) in batch.vertices.iter_mut().enumerate() {
            for (j, e) in nv.edges.iter_mut().enumerate() {
                e.1 = 1 + ((i + j) % 4) as u32;
            }
        }
    }
    let base = engine.graph().num_vertices() as VertexId;
    let steps = engine.rc_steps_done();
    engine.apply_vertex_additions(&batch, AssignStrategy::Repartition { seed }).expect("wave");
    assert_eq!(engine.rc_steps_done(), steps, "the wave ran an RC step");

    let case = format!("{weights:?}, P = {procs}, converged = {converged}");
    #[cfg(debug_assertions)]
    engine.check_admissible();
    let held = engine.distances();
    let n = engine.graph().num_vertices() as VertexId;
    for v in 0..n {
        let cols = if v < base { base..n } else { 0..n };
        for t in cols {
            assert!(held.get(v, t) < INF, "{case}: cell ({v}, {t}) unseeded");
        }
    }

    assert!(engine.run_to_convergence().converged, "{case}: no convergence");
    let (got, want) = (engine.closeness(), closeness_exact(&Csr::from_adj(engine.graph())));
    assert!(
        got.iter().map(|c| c.to_bits()).eq(want.iter().map(|c| c.to_bits())),
        "{case}: closeness is not bit-equal to the oracle"
    );
}

#[test]
fn a_repartition_wave_leaves_no_new_column_unseeded_on_unit_weights() {
    for procs in [2, 4, 16] {
        for converged in [false, true] {
            repartition_wave_is_seeded(WeightModel::Unit, procs, converged, 41);
        }
    }
}

#[test]
fn a_repartition_wave_leaves_no_new_column_unseeded_on_weighted_graphs() {
    for procs in [2, 4, 16] {
        for converged in [false, true] {
            let weights = WeightModel::UniformRange { lo: 1, hi: 6 };
            repartition_wave_is_seeded(weights, procs, converged, 42);
        }
    }
}
