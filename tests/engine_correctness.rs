//! End-to-end correctness: the distributed engine's converged fixed point
//! must equal single-machine reference APSP / closeness on every kind of
//! graph, processor count, and execution mode.

use anytime_anywhere::core::{AnytimeEngine, DdPartitioner, EngineConfig};
use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::generators::*;
use anytime_anywhere::graph::{AdjGraph, Csr};
use anytime_anywhere::runtime::ExecutionMode;

fn assert_engine_exact(g: &AdjGraph, config: EngineConfig) {
    let reference = apsp_dijkstra(&Csr::from_adj(g));
    let mut engine = AnytimeEngine::new(g.clone(), config).unwrap();
    let summary = engine.run_to_convergence();
    assert!(summary.converged, "did not converge in {} steps", summary.steps);
    let got = engine.distances();
    let n = g.num_vertices();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            assert_eq!(
                got.get(u, v),
                reference.get(u, v),
                "d({u},{v}) mismatch with {} procs",
                engine.procs()
            );
        }
    }
    // Closeness agrees too.
    let exact_c = closeness_exact(&Csr::from_adj(g));
    for (a, b) in engine.closeness().iter().zip(&exact_c) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn scale_free_graph_all_proc_counts() {
    let g = barabasi_albert(150, 2, WeightModel::Unit, 11).unwrap();
    for p in [1, 2, 3, 8] {
        assert_engine_exact(&g, EngineConfig::deterministic(p));
    }
}

#[test]
fn weighted_scale_free_graph() {
    let g = barabasi_albert(120, 3, WeightModel::UniformRange { lo: 1, hi: 9 }, 5).unwrap();
    assert_engine_exact(&g, EngineConfig::deterministic(4));
}

#[test]
fn erdos_renyi_including_disconnected() {
    // Sparse ER is very likely disconnected: INF handling must be exact.
    let g = erdos_renyi(100, 60, WeightModel::Unit, 3).unwrap();
    assert_engine_exact(&g, EngineConfig::deterministic(4));
}

#[test]
fn small_world_graph() {
    let g = watts_strogatz(140, 6, 0.2, WeightModel::Unit, 8).unwrap();
    assert_engine_exact(&g, EngineConfig::deterministic(5));
}

#[test]
fn community_graph_with_multilevel_dd() {
    let m = PlantedPartition { communities: 4, size: 30, p_in: 0.3, p_out: 0.01 };
    let (g, _) = planted_partition(&m, WeightModel::Unit, 9).unwrap();
    assert_engine_exact(&g, EngineConfig::deterministic(4));
}

#[test]
fn every_dd_partitioner_converges_to_the_same_answer() {
    let g = barabasi_albert(90, 2, WeightModel::Unit, 13).unwrap();
    for dd in [
        DdPartitioner::Multilevel { seed: 1 },
        DdPartitioner::Block,
        DdPartitioner::RoundRobin,
        DdPartitioner::Hash,
        DdPartitioner::Random { seed: 2 },
    ] {
        let mut cfg = EngineConfig::deterministic(4);
        cfg.dd = dd;
        assert_engine_exact(&g, cfg);
    }
}

#[test]
fn parallel_mode_matches_sequential() {
    let g = barabasi_albert(130, 2, WeightModel::UniformRange { lo: 1, hi: 4 }, 21).unwrap();
    let mut seq_cfg = EngineConfig::deterministic(6);
    seq_cfg.cluster.mode = ExecutionMode::Sequential;
    let mut par_cfg = EngineConfig::with_procs(6);
    par_cfg.cluster.mode = ExecutionMode::Parallel;

    let mut e1 = AnytimeEngine::new(g.clone(), seq_cfg).unwrap();
    e1.run_to_convergence();
    let mut e2 = AnytimeEngine::new(g.clone(), par_cfg).unwrap();
    e2.run_to_convergence();
    assert_eq!(e1.distances(), e2.distances());
}

#[test]
fn tiny_message_cap_still_converges() {
    let g = barabasi_albert(80, 2, WeightModel::Unit, 2).unwrap();
    let mut cfg = EngineConfig::deterministic(4);
    cfg.message_cap_bytes = 64; // forces one row per message
    assert_engine_exact(&g, cfg);
}

#[test]
fn more_procs_than_vertices() {
    let g = barabasi_albert(6, 2, WeightModel::Unit, 1).unwrap();
    assert_engine_exact(&g, EngineConfig::deterministic(10));
}

#[test]
fn isolated_vertices_and_empty_parts() {
    let mut g = AdjGraph::with_vertices(20);
    for i in 0..9u32 {
        g.add_edge(i, i + 1, 2).unwrap();
    }
    // Vertices 10..20 isolated.
    assert_engine_exact(&g, EngineConfig::deterministic(4));
}

#[test]
fn static_convergence_takes_few_steps() {
    // For static graphs the productive steps are bounded by the processor
    // chain; P=4 on a connected graph must converge well within P+2 steps.
    let g = barabasi_albert(100, 2, WeightModel::Unit, 6).unwrap();
    let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
    let summary = engine.run_to_convergence();
    assert!(summary.converged);
    assert!(summary.steps <= 6, "took {} steps", summary.steps);
}

#[test]
fn zero_procs_is_rejected() {
    let g = AdjGraph::with_vertices(3);
    assert!(AnytimeEngine::new(g, EngineConfig::deterministic(0)).is_err());
}

#[test]
fn external_multilevel_partition_is_adopted() {
    // Domain decomposition ran out of band: the engine adopts the
    // externally computed multilevel assignment instead of running
    // `EngineConfig::dd`, and its converged answer must match the reference
    // exactly. The partitioners are generic over `GraphStore`, so the CSR
    // snapshot of the same graph must partition identically.
    use anytime_anywhere::partition::{MultilevelPartitioner, Partitioner};

    let g = barabasi_albert(150, 2, WeightModel::UniformRange { lo: 1, hi: 5 }, 13).unwrap();
    let part = MultilevelPartitioner::seeded(7).partition(&g, 4).unwrap();
    let via_csr = MultilevelPartitioner::seeded(7).partition(&Csr::from_adj(&g), 4).unwrap();
    assert_eq!(part, via_csr, "partition must not depend on the backend");

    let mut engine =
        AnytimeEngine::with_partition(g.clone(), part.clone(), EngineConfig::deterministic(4))
            .unwrap();
    assert_eq!(engine.partition(), &part, "the engine runs on the adopted assignment");
    let summary = engine.run_to_convergence();
    assert!(summary.converged);
    let exact_c = closeness_exact(&Csr::from_adj(&g));
    for (a, b) in engine.closeness().iter().zip(&exact_c) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn external_partition_must_match_graph_and_procs() {
    use anytime_anywhere::partition::Partition;
    let g = barabasi_albert(20, 2, WeightModel::Unit, 1).unwrap();
    // Wrong vertex count.
    let short = Partition::new(vec![0; 10], 2).unwrap();
    assert!(
        AnytimeEngine::with_partition(g.clone(), short, EngineConfig::deterministic(2)).is_err()
    );
    // Wrong k.
    let wrong_k = Partition::new(vec![0; 20], 3).unwrap();
    assert!(AnytimeEngine::with_partition(g, wrong_k, EngineConfig::deterministic(2)).is_err());
}
