//! Property coverage for the ingest coalescer under **adversarial
//! hub-targeting streams** — the workload the background rebalancer is
//! built to absorb. Two contracts:
//!
//! 1. *Streamed ≡ direct.* Bursts submitted through the coalescing
//!    change log (which may fold same-strategy vertex batches and hence
//!    assign them differently) must land on the bit-identical fixed
//!    point of applying the same batches one by one — closeness is a
//!    partition-independent function of the graph, so coalescing can
//!    never be observable in the answers.
//! 2. *Bounded backlog under migration.* While the adaptive rebalancer
//!    is actively migrating the targeted hubs off an overloaded rank,
//!    the log's entry count stays O(1) in both burst size and stream
//!    length — coalescing bounds the queue by entry *kinds*, not by
//!    offered batches.

use anytime_anywhere::core::changes::DynamicChange;
use anytime_anywhere::core::{
    AnytimeEngine, AssignStrategy, EngineConfig, NewVertex, RebalancePolicy, VertexBatch,
};
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::{AdjGraph, PartId};
use anytime_anywhere::partition::Partition;
use proptest::prelude::*;

/// Every new vertex wires exclusively to the highest-degree vertices of
/// the base graph: the degenerate stream that concentrates all new load
/// on whichever ranks own the hubs.
fn hub_batch(g: &AdjGraph, count: usize, edges_per_vertex: usize, seed: u64) -> VertexBatch {
    let mut by_degree: Vec<u32> = g.vertices().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let pool = by_degree.len().min(edges_per_vertex + 4);
    let hubs = &by_degree[..pool];
    let vertices = (0..count)
        .map(|i| {
            let start = (seed as usize + i) % hubs.len();
            let edges = (0..edges_per_vertex.min(hubs.len()))
                .map(|j| (hubs[(start + j) % hubs.len()], 1))
                .collect();
            NewVertex { edges }
        })
        .collect();
    VertexBatch { vertices }
}

fn bits(close: &[f64]) -> Vec<u64> {
    close.iter().map(|c| c.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_hub_batches_equal_direct_application(
        n in 30usize..80,
        gseed in 0u64..500,
        procs in 2usize..5,
        ticks in 2u64..6,
        burst in 1usize..4,
        batch in 1usize..5,
    ) {
        let g = barabasi_albert(n, 2, WeightModel::UniformRange { lo: 1, hi: 6 }, gseed)
            .unwrap();
        // All batches target the *base* hubs and are generated up front,
        // so both engines see byte-identical change sequences no matter
        // when each drains.
        let batches: Vec<VertexBatch> = (0..ticks * burst as u64)
            .map(|i| hub_batch(&g, batch, 2, gseed + i))
            .collect();
        let strategy = AssignStrategy::CutEdge { seed: gseed, tries: 1 };

        // Streamed: bursts enter the coalescing log; RC steps run at half
        // the offered cadence so bursts genuinely queue and fold.
        let mut streamed =
            AnytimeEngine::new(g.clone(), EngineConfig::deterministic(procs)).unwrap();
        let mut offered = batches.iter();
        for t in 0..ticks {
            for _ in 0..burst {
                streamed
                    .submit_with_strategy(
                        DynamicChange::AddVertices(offered.next().unwrap().clone()),
                        strategy,
                    )
                    .unwrap();
            }
            if t % 2 == 1 {
                streamed.rc_step();
            }
        }
        while streamed.pending_changes() > 0 {
            streamed.rc_step();
        }
        prop_assert!(streamed.run_to_convergence().converged);
        prop_assert!(
            streamed.ingest_stats().coalesced > 0,
            "same-strategy bursts across ticks must exercise the coalescer"
        );

        // Direct: the same batches applied immediately, one by one.
        let mut direct = AnytimeEngine::new(g, EngineConfig::deterministic(procs)).unwrap();
        for b in &batches {
            direct.apply_vertex_additions(b, strategy).unwrap();
        }
        prop_assert!(direct.run_to_convergence().converged);

        prop_assert_eq!(streamed.distances(), direct.distances());
        prop_assert_eq!(bits(&streamed.closeness()), bits(&direct.closeness()));
    }

    #[test]
    fn backlog_stays_bounded_while_the_rebalancer_chases_hubs(
        n in 40usize..90,
        gseed in 0u64..500,
        procs in 2usize..5,
        ticks in 4u64..10,
        burst in 2usize..5,
    ) {
        let g = barabasi_albert(n, 2, WeightModel::UniformRange { lo: 1, hi: 5 }, gseed)
            .unwrap();
        // Skew everything onto rank 0 (one seed vertex per other rank) so
        // the first barrier provably trips the trigger: the rebalancer is
        // migrating the very hubs the stream keeps piling onto.
        let mut owner = vec![0 as PartId; n];
        for q in 1..procs {
            owner[n - q] = q as PartId;
        }
        let partition = Partition::new(owner, procs).unwrap();
        let mut config = EngineConfig::deterministic(procs);
        config.rebalance = RebalancePolicy::Adaptive;
        let mut engine = AnytimeEngine::with_partition(g.clone(), partition, config).unwrap();

        let mut peak = 0usize;
        for t in 0..ticks {
            for i in 0..burst {
                let b = hub_batch(&g, 3, 2, gseed + t * 31 + i as u64);
                engine
                    .submit_with_strategy(
                        DynamicChange::AddVertices(b),
                        AssignStrategy::CutEdge { seed: gseed, tries: 1 },
                    )
                    .unwrap();
            }
            peak = peak.max(engine.pending_changes());
            if t % 2 == 1 {
                engine.rc_step();
            }
        }
        // Every same-strategy AddVertices burst folds into one log entry:
        // the backlog never scales with burst size or stream length.
        prop_assert!(peak <= 2, "coalesced backlog grew to {}", peak);

        while engine.pending_changes() > 0 {
            engine.rc_step();
        }
        prop_assert!(engine.run_to_convergence().converged);
        let stats = engine.stats();
        prop_assert!(stats.migrations > 0, "the skewed start must trip the rebalancer");
        prop_assert!(stats.migration_bytes > 0, "migrated rows ride the priced exchange");

        // Migration under a live stream never disturbs the fixed point.
        let live = bits(&engine.closeness());
        let exact = bits(&engine.recompute_exact());
        prop_assert_eq!(live, exact);
    }
}
