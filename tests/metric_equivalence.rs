//! Equivalence properties for the metric abstraction (S31).
//!
//! Two contracts, both bit-level:
//!
//! 1. **Closeness is unchanged by the refactor.** An engine that also
//!    maintains betweenness must publish exactly the closeness column,
//!    epoch numbering and convergence state of a closeness-only engine —
//!    per published epoch, across dynamic churn, checkpoint/restore and a
//!    forced rebalance. The extra metric rides along driver-side and must
//!    never perturb the priced computation.
//! 2. **Incremental betweenness is exact at convergence.** After every
//!    drain, once the DV rows re-converge, the published betweenness
//!    column equals the deterministic Brandes oracle bit-for-bit (same
//!    kernel, same canonical tie-break, same summation order) — on both
//!    the sequential and the parallel executor.
//! 3. **Selective is wholesale.** A drain hands the metric only the
//!    sources whose row moved or under whose row a changed edge is tight.
//!    After *every* drain and *every* RC step — on rows that have not
//!    converged — the published column equals a from-scratch
//!    `IncBetweenness` over all the current rows, bit for bit.

use anytime_anywhere::core::publish::BoundsMode;
use anytime_anywhere::core::{
    AnytimeEngine, AssignStrategy, DynamicChange, EngineConfig, IncBetweenness, Metric, MetricKind,
    NewVertex, VertexBatch, WireFormat,
};
use anytime_anywhere::graph::centrality::betweenness_exact_det;
use anytime_anywhere::graph::generators::{watts_strogatz, WeightModel};
use anytime_anywhere::graph::{AdjGraph, Csr, GraphBuilder, VertexId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An arbitrary simple weighted graph with `n ∈ [2, 24]` vertices.
/// Strictly positive weights — the path-counting kernel requires them.
fn arb_graph() -> impl Strategy<Value = AdjGraph> {
    (2usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..8), 0..(3 * n));
        edges.prop_map(move |edges| {
            let mut b = GraphBuilder::with_vertices(n);
            for (u, v, w) in edges {
                b.edge(u, v, w);
            }
            b.build().expect("builder output is always valid")
        })
    })
}

/// Engine config with the given executor and metric selection.
fn config(p: usize, parallel: bool, betweenness: bool) -> EngineConfig {
    let mut c = if parallel { EngineConfig::with_procs(p) } else { EngineConfig::deterministic(p) };
    if betweenness {
        c.metrics = vec![MetricKind::Betweenness];
    }
    c
}

/// One random structural change against `g`, with the strategy a vertex
/// batch is to be placed by: an edge removed, reweighted or added, a
/// small RoundRobin-PS batch — and, from `kinds = 6`, a vertex removal
/// and a Repartition-S batch. `None` when no free pair turns up for a
/// fresh edge on a (nearly) complete graph.
fn pick_change(
    g: &AdjGraph,
    rng: &mut ChaCha8Rng,
    kinds: u32,
) -> Option<(DynamicChange, AssignStrategy)> {
    let n = g.num_vertices() as u32;
    let existing: Vec<(u32, u32, u32)> = g.edges().collect();
    let batch = |rng: &mut ChaCha8Rng| {
        let mut edges = (0..rng.gen_range(1..3u32))
            .map(|_| (rng.gen_range(0..n), rng.gen_range(1..6u32)))
            .collect::<Vec<_>>();
        edges.sort_unstable_by_key(|e| e.0);
        edges.dedup_by_key(|e| e.0);
        DynamicChange::AddVertices(VertexBatch { vertices: vec![NewVertex { edges }] })
    };
    let mut strategy = AssignStrategy::RoundRobin;
    let change = match rng.gen_range(0..kinds) {
        0 if !existing.is_empty() => {
            let (u, v, _) = existing[rng.gen_range(0..existing.len())];
            DynamicChange::RemoveEdge { u, v }
        }
        1 if !existing.is_empty() => {
            let (u, v, w) = existing[rng.gen_range(0..existing.len())];
            DynamicChange::SetWeight { u, v, w: (w % 7) + 1 }
        }
        2 => batch(rng),
        4 => DynamicChange::RemoveVertices(
            (0..rng.gen_range(1..3u32)).map(|_| rng.gen_range(0..n)).collect(),
        ),
        5 => {
            strategy = AssignStrategy::Repartition { seed: rng.gen_range(0..1000) };
            batch(rng)
        }
        _ => {
            let mut pick = None;
            for _ in 0..32 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && !g.has_edge(u, v) {
                    pick = Some((u, v));
                    break;
                }
            }
            let (u, v) = pick?;
            DynamicChange::AddEdge { u, v, w: rng.gen_range(1..6) }
        }
    };
    Some((change, strategy))
}

/// Submits one random structural change (edge add / remove / reweight, or
/// a small vertex batch) and drains it at the barrier.
fn apply_random_change(engine: &mut AnytimeEngine, rng: &mut ChaCha8Rng) {
    if let Some((change, strategy)) = pick_change(engine.graph(), rng, 4) {
        engine.submit_with_strategy(change, strategy).expect("validates against the live graph");
        engine.drain_changes().expect("drain applies");
    }
}

fn bits(col: Vec<f64>) -> Vec<u64> {
    col.into_iter().map(f64::to_bits).collect()
}

/// Contract 3: the published column is, bit for bit, what a metric with no
/// state makes of *all* the engine's current rows — so no source the
/// engine skipped would have come out differently.
fn assert_selective_is_wholesale(engine: &AnytimeEngine) -> Result<(), TestCaseError> {
    let g = engine.graph();
    let n = g.num_vertices();
    let distances = engine.distances();
    let rows: Vec<_> = (0..n as VertexId).map(|v| (v, distances.row(v).to_vec())).collect();
    let mut wholesale = IncBetweenness::new();
    wholesale.update(n, &rows, g);
    let view = engine.published();
    let col = view.metric_values(MetricKind::Betweenness).expect("betweenness carried");
    prop_assert_eq!(bits(col), bits(wholesale.full_column(n).expect("keeps a column")));
    Ok(())
}

/// The published betweenness column must equal the deterministic Brandes
/// oracle on the engine's current graph, bit for bit.
fn assert_matches_oracle(engine: &AnytimeEngine) -> Result<(), TestCaseError> {
    let view = engine.published();
    let col = view.metric_values(MetricKind::Betweenness).expect("betweenness carried");
    let oracle = betweenness_exact_det(&Csr::from_adj(engine.graph()));
    prop_assert_eq!(col, oracle);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 1: per-epoch closeness bit-equality between a
    /// closeness-only engine and one that also maintains betweenness,
    /// stepped in lockstep through convergence and random churn.
    #[test]
    fn betweenness_engine_publishes_identical_closeness(
        g in arb_graph(),
        p in 1usize..4,
        rounds in 1usize..4,
        seed in 0u64..1000,
    ) {
        let mut a = AnytimeEngine::new(g.clone(), config(p, false, false)).unwrap();
        let mut b = AnytimeEngine::new(g, config(p, false, true)).unwrap();
        let lockstep = |a: &mut AnytimeEngine, b: &mut AnytimeEngine| -> Result<(), TestCaseError> {
            loop {
                let (ma, mb) = (a.rc_step(), b.rc_step());
                prop_assert_eq!(ma, mb);
                let (va, vb) = (a.published(), b.published());
                prop_assert_eq!(va.epoch, vb.epoch);
                prop_assert_eq!(va.converged, vb.converged);
                prop_assert_eq!(va.closeness(), vb.closeness());
                prop_assert_eq!(va.top_k(5), vb.top_k(5));
                if !ma {
                    return Ok(());
                }
            }
        };
        lockstep(&mut a, &mut b)?;
        let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..rounds {
            apply_random_change(&mut a, &mut rng_a);
            apply_random_change(&mut b, &mut rng_b);
            lockstep(&mut a, &mut b)?;
        }
        prop_assert_eq!(a.epochs_published(), b.epochs_published());
        prop_assert_eq!(a.distances(), b.distances());
        // The extra column answered alongside, and it is exact here.
        assert_matches_oracle(&b)?;
    }

    /// Contract 2 on the sequential executor: the incremental column is
    /// bit-equal to the Brandes oracle at convergence after every drain.
    #[test]
    fn incremental_betweenness_matches_oracle_across_churn(
        g in arb_graph(),
        p in 1usize..4,
        rounds in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut engine = AnytimeEngine::new(g, config(p, false, true)).unwrap();
        prop_assert!(engine.run_to_convergence().converged);
        assert_matches_oracle(&engine)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..rounds {
            apply_random_change(&mut engine, &mut rng);
            prop_assert!(engine.run_to_convergence().converged);
            assert_matches_oracle(&engine)?;
        }
    }

    /// Checkpoint/restore carries the metric identity (the METR section):
    /// an engine restored with a *closeness-only* config from a snapshot
    /// of a betweenness-maintaining engine keeps publishing the column,
    /// and it re-converges to the oracle bits.
    #[test]
    fn restore_preserves_metric_identity_and_exactness(
        g in arb_graph(),
        p in 1usize..4,
        steps in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut engine = AnytimeEngine::new(g.clone(), config(p, false, true)).unwrap();
        for _ in 0..steps {
            engine.rc_step();
        }
        let bytes = engine.checkpoint_bytes().expect("checkpoint");
        let mut restored =
            AnytimeEngine::restore(&bytes[..], config(p, false, false)).expect("restore");
        prop_assert!(restored.metric_mask().contains(MetricKind::Betweenness));
        prop_assert!(restored.run_to_convergence().converged);
        assert_matches_oracle(&restored)?;
        // And the closeness bits agree with an undisturbed reference run.
        let mut reference = AnytimeEngine::new(g, config(p, false, false)).unwrap();
        prop_assert!(reference.run_to_convergence().converged);
        prop_assert_eq!(restored.published().closeness(), reference.published().closeness());
        let _ = seed;
    }

    /// A forced repartition + migration must not disturb either column:
    /// closeness stays bit-equal to the closeness-only engine's and the
    /// betweenness column re-converges to the oracle.
    #[test]
    fn rebalance_preserves_both_columns(
        g in arb_graph(),
        p in 2usize..4,
        seed in 0u64..1000,
    ) {
        let mut a = AnytimeEngine::new(g.clone(), config(p, false, false)).unwrap();
        let mut b = AnytimeEngine::new(g, config(p, false, true)).unwrap();
        prop_assert!(a.run_to_convergence().converged);
        prop_assert!(b.run_to_convergence().converged);
        a.rebalance(seed).expect("rebalance");
        b.rebalance(seed).expect("rebalance");
        prop_assert!(a.run_to_convergence().converged);
        prop_assert!(b.run_to_convergence().converged);
        prop_assert_eq!(a.published().closeness(), b.published().closeness());
        prop_assert_eq!(a.distances(), b.distances());
        assert_matches_oracle(&b)?;
    }
}

proptest! {
// Fewer cases: the parallel executor spins real worker threads.
#![proptest_config(ProptestConfig::with_cases(8))]

/// Contract 2 on the parallel executor: the kernel is bit-identical
/// across executors, so the published column must still equal the
/// oracle exactly after every drain.
#[test]
fn incremental_betweenness_matches_oracle_on_parallel_executor(
    g in arb_graph(),
    p in 2usize..4,
    rounds in 1usize..3,
    seed in 0u64..1000,
) {
    let mut engine = AnytimeEngine::new(g, config(p, true, true)).unwrap();
    prop_assert!(engine.run_to_convergence().converged);
    assert_matches_oracle(&engine)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..rounds {
        apply_random_change(&mut engine, &mut rng);
        prop_assert!(engine.run_to_convergence().converged);
        assert_matches_oracle(&engine)?;
    }
}}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 3, over programs that mix all five change kinds —
    /// `RemoveVertices`, Repartition-S batches and several changes in one
    /// drain included — with RC steps, on both executors and both wires;
    /// and contract 2 at the end of each.
    #[test]
    fn selective_updates_equal_wholesale_after_every_drain_and_step(
        g in arb_graph(),
        p in 1usize..4,
        parallel in 0u8..2,
        delta_wire in 0u8..2,
        ops in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut cfg = config(p, parallel == 1, true);
        if delta_wire == 1 {
            cfg.wire = WireFormat::Delta;
        }
        let mut engine = AnytimeEngine::new(g, cfg).unwrap();
        assert_selective_is_wholesale(&engine)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..ops {
            match rng.gen_range(0..3u32) {
                0 => {
                    engine.rc_step();
                }
                burst => {
                    // One change, or up to three in one drain. Each is
                    // picked against the live graph, so `submit` may turn
                    // down one that a change queued ahead of it undid.
                    for _ in 0..1 + 2 * (burst - 1) {
                        if let Some((change, strategy)) = pick_change(engine.graph(), &mut rng, 6) {
                            let _ = engine.submit_with_strategy(change, strategy);
                        }
                    }
                    engine.drain_changes().expect("drain applies");
                }
            }
            assert_selective_is_wholesale(&engine)?;
        }
        while engine.rc_step() {
            assert_selective_is_wholesale(&engine)?;
        }
        assert_selective_is_wholesale(&engine)?;
        assert_matches_oracle(&engine)?;
    }
}

/// A converged small-world engine (unit weights) maintaining betweenness
/// under certified bounds — the `stream_serve` shape, small.
fn converged_small_world(n: usize) -> AnytimeEngine {
    let g = watts_strogatz(n, 4, 0.1, WeightModel::Unit, 7).expect("generator");
    let mut cfg = config(3, false, true);
    cfg.publish_bounds = BoundsMode::Certified;
    let mut engine = AnytimeEngine::new(g, cfg).unwrap();
    assert!(engine.run_to_convergence().converged);
    engine
}

fn sources_recomputed(engine: &AnytimeEngine) -> u64 {
    engine.metric_tally(MetricKind::Betweenness).expect("betweenness maintained").sources_recomputed
}

/// A stream of all five change kinds never voids the metric: the one full
/// rebuild is the construction's.
#[test]
fn a_change_stream_rebuilds_the_metric_once() {
    let mut engine = converged_small_world(40);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut applied = 0;
    while applied < 40 {
        let Some((change, strategy)) = pick_change(engine.graph(), &mut rng, 6) else { continue };
        engine.submit_with_strategy(change, strategy).expect("validates against the live graph");
        applied += engine.drain_changes().expect("drain applies");
        engine.rc_step();
    }
    assert!(engine.run_to_convergence().converged);
    let tally = engine.metric_tally(MetricKind::Betweenness).unwrap();
    assert_eq!(tally.full_recomputes, 1);
    let view = engine.published();
    let oracle = betweenness_exact_det(&Csr::from_adj(engine.graph()));
    assert_eq!(view.metric_values(MetricKind::Betweenness).unwrap(), oracle);
}

/// An edge between two vertices equidistant from a source is tight under
/// no row of that source, and moves none of its cells: the source keeps
/// its dependency vector, while an endpoint's own row does move.
#[test]
fn an_edge_between_equidistant_vertices_leaves_that_source_alone() {
    let mut engine = converged_small_world(40);
    let d = engine.distances();
    let g = engine.graph().clone();
    let n = g.num_vertices() as VertexId;
    let (x, u, v) = (0..n)
        .flat_map(|x| (0..n).flat_map(move |u| (u + 1..n).map(move |v| (x, u, v))))
        .find(|&(x, u, v)| x != u && x != v && !g.has_edge(u, v) && d.get(x, u) == d.get(x, v))
        .expect("some source has two equidistant non-neighbours");
    let before = sources_recomputed(&engine);
    engine.add_edge(u, v, 1).unwrap();
    let recomputed = sources_recomputed(&engine) - before;
    assert!(recomputed >= 2, "the endpoints' own rows moved");
    // Every source but the equidistant ones: x at least is left out.
    let equidistant = (0..n).filter(|&s| d.get(s, u) == d.get(s, v)).count() as u64;
    assert!(recomputed <= n as u64 - equidistant, "{recomputed} of {n} sources, {x} spared");
    assert!(engine.run_to_convergence().converged);
    let oracle = betweenness_exact_det(&Csr::from_adj(engine.graph()));
    assert_eq!(engine.published().metric_values(MetricKind::Betweenness).unwrap(), oracle);
}

/// A change that changes nothing — a weight set to what it is, the removal
/// of vertices without edges — still counts as applied and still publishes
/// its epoch, but recomputes no source and forces no full epoch; the
/// columns do not move.
#[test]
fn a_change_that_alters_nothing_voids_nothing() {
    let mut engine = converged_small_world(30);
    // Isolate two vertices first, so their removal later alters nothing.
    engine.remove_vertices(&[3, 4]).unwrap();
    assert!(engine.run_to_convergence().converged);
    let (u, v, w) = engine.graph().edges().next().expect("an edge");
    let noops = [DynamicChange::SetWeight { u, v, w }, DynamicChange::RemoveVertices(vec![3, 4])];
    for change in noops {
        let before = engine.published();
        let (sources, full_epochs, applied) = (
            sources_recomputed(&engine),
            engine.publish_stats().full_epochs,
            engine.changes_applied(),
        );
        engine.submit(change.clone()).unwrap();
        assert_eq!(engine.drain_changes().unwrap(), 1, "{change:?} counts as applied");
        assert_eq!(engine.changes_applied(), applied + 1);
        let after = engine.published();
        assert_eq!(after.epoch, before.epoch + 1, "{change:?} publishes its epoch");
        assert_eq!(sources_recomputed(&engine), sources, "{change:?}");
        assert_eq!(engine.publish_stats().full_epochs, full_epochs, "{change:?}");
        for kind in [MetricKind::Closeness, MetricKind::Betweenness] {
            assert_eq!(
                bits(after.metric_values(kind).unwrap()),
                bits(before.metric_values(kind).unwrap())
            );
        }
    }
}
