//! Fault injection + recovery end-to-end: a run interrupted by a rank
//! failure, restored from a checkpoint taken at j ≤ k, must converge to
//! the same fixed point bit-for-bit as an uninterrupted run — and the
//! stats must not double-count the replayed phase.

use anytime_anywhere::core::{
    AnytimeEngine, AssignStrategy, ClusterError, CoreError, EngineConfig, FaultPlan, Snapshot,
};
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::AdjGraph;

fn test_graph(n: usize, seed: u64) -> AdjGraph {
    barabasi_albert(n, 3, WeightModel::UniformRange { lo: 1, hi: 8 }, seed).expect("generator")
}

/// Drives a faulted engine to convergence, recovering every failure from
/// `snapshot`, and returns how many failures were recovered.
fn converge_with_recovery(engine: &mut AnytimeEngine, snapshot: &Snapshot) -> usize {
    let mut recoveries = 0;
    for _ in 0..10_000 {
        match engine.rc_step_checked() {
            Ok(true) => {}
            Ok(false) => return recoveries,
            Err(CoreError::Cluster(ClusterError::RankFailed { rank, .. })) => {
                engine.recover_rank(rank, snapshot).expect("recovery");
                recoveries += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    panic!("hit the RC safety bound");
}

#[test]
fn fault_interrupted_run_recovers_bit_identical() {
    let g = test_graph(300, 9);
    let config = EngineConfig::deterministic(4);

    let mut reference = AnytimeEngine::new(g.clone(), config.clone()).expect("engine");
    reference.run_to_convergence();
    let expected_dist = reference.distances();
    let expected_closeness = reference.closeness();

    // Checkpoint at j = 2, rank 2 dies at superstep 5 (k > j).
    let mut engine = AnytimeEngine::new(g, config).expect("engine");
    engine.rc_step();
    engine.rc_step();
    let snapshot = engine.snapshot();
    engine.inject_fault(FaultPlan::at(2, 5));

    let recoveries = converge_with_recovery(&mut engine, &snapshot);
    assert_eq!(recoveries, 1, "the armed fault fires exactly once");
    assert_eq!(engine.stats().restores, 1);
    assert_eq!(engine.distances(), expected_dist);
    assert_eq!(engine.closeness(), expected_closeness);
}

#[test]
fn recovery_replay_is_monotone_upper_bounded() {
    // Min-merge monotonicity is what makes replaying from an older
    // snapshot safe: at every point after recovery, every DV entry is an
    // upper bound on the true distance, and entries only decrease.
    let g = test_graph(200, 4);
    let config = EngineConfig::deterministic(4);

    let mut reference = AnytimeEngine::new(g.clone(), config.clone()).expect("engine");
    reference.run_to_convergence();
    let truth = reference.distances();

    let mut engine = AnytimeEngine::new(g, config).expect("engine");
    engine.rc_step();
    let snapshot = engine.snapshot(); // early snapshot: j = 1
    engine.inject_fault(FaultPlan::at(1, 6));
    let err = loop {
        match engine.rc_step_checked() {
            Ok(true) => continue,
            Ok(false) => panic!("fault should fire before quiescence"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, CoreError::Cluster(ClusterError::RankFailed { rank: 1, .. })));
    engine.recover_rank(1, &snapshot).expect("recovery");

    // Immediately after recovery — and after every subsequent RC step —
    // the partial distances never dip below the true fixed point.
    let n = truth.n();
    let check_upper_bound = |m: &anytime_anywhere::graph::apsp::DistMatrix| {
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                assert!(
                    m.get(u, v) >= truth.get(u, v),
                    "distance {}→{} dipped below the fixed point",
                    u,
                    v
                );
            }
        }
    };
    check_upper_bound(&engine.distances());
    let mut prev = engine.distances();
    while engine.rc_step() {
        let now = engine.distances();
        check_upper_bound(&now);
        // Anytime monotonicity: entries never increase step over step.
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                assert!(now.get(u, v) <= prev.get(u, v), "entry {u}→{v} increased");
            }
        }
        prev = now;
    }
    assert_eq!(engine.distances(), truth);
}

#[test]
fn recovery_from_older_snapshot_still_converges() {
    // j ≤ k with a wide gap, and a dynamic change between snapshot and
    // failure: the snapshot predates the batch, yet replay still reaches
    // the post-change fixed point.
    let g = test_graph(250, 11);
    let config = EngineConfig::deterministic(3);

    let mut engine = AnytimeEngine::new(g.clone(), config.clone()).expect("engine");
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    while engine.rc_step_checked().expect("no fault armed") {
        if engine.rc_steps_done() % 2 == 0 {
            snapshots.push(engine.checkpoint_bytes().expect("checkpoint"));
        }
    }
    assert!(!snapshots.is_empty(), "a checkpoint every second step must have fired");
    let early = Snapshot::from_bytes(&snapshots[0]).expect("snapshot readable");

    let batch = anytime_anywhere::core::changes::preferential_batch(engine.graph(), 12, 2, 5);
    engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("batch");
    engine.inject_fault(FaultPlan::at(0, engine.stats().supersteps + 2));
    let recoveries = converge_with_recovery(&mut engine, &early);
    assert_eq!(recoveries, 1);

    let mut reference = AnytimeEngine::new(g, config).expect("engine");
    reference.run_to_convergence();
    reference.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("batch");
    reference.run_to_convergence();
    assert_eq!(engine.distances(), reference.distances());
    assert_eq!(engine.closeness(), reference.closeness());
}

#[test]
fn restore_discards_post_checkpoint_stats() {
    // Wall/phase accounting regression: work done after the checkpoint and
    // thrown away by the restore must not be counted twice. The restored
    // engine's stats are exactly the snapshot's (plus the restore event),
    // and composing checkpoint-time stats with the retried phase's delta
    // reproduces the end state instead of double-counting.
    let g = test_graph(200, 21);
    let config = EngineConfig::deterministic(4);
    let mut engine = AnytimeEngine::new(g, config.clone()).expect("engine");
    engine.rc_step();
    engine.rc_step();
    let bytes = engine.checkpoint_bytes().expect("checkpoint");
    let at_checkpoint = engine.stats();
    assert_eq!(at_checkpoint.checkpoints, 1);

    // Post-checkpoint work that a failure would discard.
    engine.run_to_convergence();
    let at_end = engine.stats();
    assert!(at_end.supersteps > at_checkpoint.supersteps);

    let mut restored = AnytimeEngine::restore(&bytes[..], config).expect("restore");
    let s = restored.stats();
    assert_eq!(s.restores, at_checkpoint.restores + 1);
    assert_eq!(s.supersteps, at_checkpoint.supersteps);
    assert_eq!(s.messages, at_checkpoint.messages);
    assert_eq!(s.bytes, at_checkpoint.bytes);
    assert_eq!(s.wall, at_checkpoint.wall, "discarded wall time leaked into the restore");

    // Retry the phase on the restored engine and account for it the way
    // the stats contract prescribes: as a delta since the restore point.
    let baseline = restored.stats();
    restored.run_to_convergence();
    let retry_delta = restored.stats().delta_since(&baseline);
    let mut composed = at_checkpoint;
    composed.merge(&retry_delta);
    assert_eq!(composed.supersteps, restored.stats().supersteps);
    assert!(
        composed.wall
            <= at_checkpoint.wall + retry_delta.wall + std::time::Duration::from_millis(1)
    );
}

#[test]
fn resume_counters_survive_restore() {
    let g = test_graph(150, 3);
    let config = EngineConfig::deterministic(3);
    let mut engine = AnytimeEngine::new(g, config.clone()).expect("engine");
    engine.run_to_convergence();
    let batch = anytime_anywhere::core::changes::preferential_batch(engine.graph(), 5, 2, 9);
    engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("batch");
    engine.add_edge(1, 140, 3).expect("edge");
    engine.run_to_convergence();

    let bytes = engine.checkpoint_bytes().expect("checkpoint");
    let restored = AnytimeEngine::restore(&bytes[..], config).expect("restore");
    assert_eq!(restored.rc_steps_done(), engine.rc_steps_done());
    assert_eq!(restored.changes_applied(), engine.changes_applied());
    assert_eq!(restored.changes_applied(), 2);
    assert_eq!(restored.graph().num_vertices(), engine.graph().num_vertices());
    assert_eq!(restored.partition().assignment(), engine.partition().assignment());
}

/// A restore comes back propagated: the snapshot does not carry the
/// kernel's change record, yet — a snapshot being taken at a barrier — only
/// pending rows can have one, so the restored engine's first wave is as
/// sparse as the live engine's, not a dense re-propagation of every row.
#[test]
fn restored_engine_absorbs_a_wave_like_the_live_one() {
    let g = test_graph(260, 17);
    let config = EngineConfig::deterministic(4);
    let mut live = AnytimeEngine::new(g, config.clone()).expect("engine");
    live.run_to_convergence();
    let snapshot = live.snapshot();
    let mut restored = AnytimeEngine::from_snapshot(&snapshot, config.clone()).expect("restore");

    let wave = anytime_anywhere::core::changes::preferential_batch(live.graph(), 10, 2, 23);
    let before = live.kernel_tally();
    for engine in [&mut live, &mut restored] {
        engine.apply_vertex_additions(&wave, AssignStrategy::RoundRobin).expect("wave");
        engine.run_to_convergence();
    }
    assert_eq!(restored.distances(), live.distances());
    assert_eq!(restored.closeness(), live.closeness());
    // The restored engine's tally starts at zero.
    let (live_passes, restored_passes) = (
        live.kernel_tally().dense_passes - before.dense_passes,
        restored.kernel_tally().dense_passes,
    );
    assert!(
        restored_passes <= live_passes,
        "restored engine made {restored_passes} dense passes, the live one {live_passes}"
    );

    // A snapshot between a Repartition-S wave and its first RC step holds
    // pending rows: those come back marked whole, and both engines still
    // meet at the same fixed point.
    let wave = anytime_anywhere::core::changes::preferential_batch(live.graph(), 8, 2, 29);
    live.apply_vertex_additions(&wave, AssignStrategy::Repartition { seed: 1 }).expect("wave");
    let snapshot = live.snapshot();
    assert!(snapshot.ranks.iter().any(|r| !r.pending.is_empty()), "no pending rows captured");
    let mut restored = AnytimeEngine::from_snapshot(&snapshot, config).expect("restore");
    live.run_to_convergence();
    restored.run_to_convergence();
    assert_eq!(restored.distances(), live.distances());
    assert_eq!(restored.closeness(), live.closeness());
}

#[test]
fn procs_mismatch_is_a_config_error() {
    let g = test_graph(100, 2);
    let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(4)).expect("engine");
    let bytes = engine.checkpoint_bytes().expect("checkpoint");
    let err = match AnytimeEngine::restore(&bytes[..], EngineConfig::deterministic(8)) {
        Ok(_) => panic!("restore with mismatched procs must fail"),
        Err(e) => e,
    };
    assert!(matches!(err, CoreError::Config(_)), "got {err:?}");
}

/// A snapshot's rows are upper bounds for the *snapshot's* graph. After a
/// decremental change they are not bounds for the current one, and
/// min-merging them in converged — `converged: true` — below the true
/// distances. Recovery must notice (the snapshot carries its graph) and
/// rebuild the rank from IA alone; after additions only, it still absorbs.
#[test]
fn recovery_from_a_snapshot_that_predates_a_deletion_is_exact() {
    use anytime_anywhere::core::DynamicChange;
    use anytime_anywhere::graph::apsp::apsp_dijkstra;
    use anytime_anywhere::graph::{Csr, INF};

    let change_for = |kind: usize, g: &AdjGraph| {
        let (u, v, w) = g.edges().nth(3).expect("fourth edge");
        match kind {
            0 => DynamicChange::RemoveEdge { u, v },
            1 => DynamicChange::SetWeight { u, v, w: w + 3 },
            2 => DynamicChange::RemoveVertices(vec![v]),
            _ => {
                let far = (0..60).rev().find(|&t| t != u && !g.has_edge(u, t)).expect("non-edge");
                DynamicChange::AddEdge { u, v: far, w: 1 }
            }
        }
    };
    for kind in 0..4 {
        let mut wrong = Vec::new();
        for seed in 0..20 {
            let g = barabasi_albert(60, 2, WeightModel::Unit, seed).expect("generator");
            let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(4)).expect("engine");
            engine.run_to_convergence();
            let snapshot = engine.snapshot();
            let change = change_for(kind, engine.graph());
            engine.apply_change(&change, AssignStrategy::RoundRobin).expect("valid change");
            engine.rc_step();
            let before = engine.kernel_tally().dense_passes;
            engine.recover_rank(1, &snapshot).expect("recovery");
            if kind == 3 {
                // Absorbed: the recovered rank is back on the snapshot's
                // converged rows (IA alone sees its sub-graph only), and
                // re-converging costs what it did before this check
                // existed.
                let rows = engine.distances();
                let owned = (0..60u32).filter(|&v| engine.partition().part_of(v) == 1);
                let unknown =
                    owned.flat_map(|v| rows.row(v).to_vec()).filter(|&d| d == INF).count();
                assert_eq!(unknown, 0, "seed {seed}: the snapshot was not absorbed");
            }
            assert!(engine.run_to_convergence().converged);
            if kind == 3 && seed == 0 {
                let passes = engine.kernel_tally().dense_passes - before;
                assert!(passes <= ABSORBED_DENSE_PASSES, "{passes} dense passes");
            }
            if engine.distances() != apsp_dijkstra(&Csr::from_adj(engine.graph())) {
                wrong.push(seed);
            }
        }
        assert!(wrong.is_empty(), "kind {kind}: wrong distances on seeds {wrong:?}");
    }
}

/// Dense passes the addition case above takes at seed 0 to re-converge
/// after the recovery. The recovered rank's store carries its
/// predecessor's tally, so this is the whole recovery's work: none of
/// rank 1's earlier passes come off it.
const ABSORBED_DENSE_PASSES: u64 = 1791;
