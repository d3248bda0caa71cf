//! Anytime persistence: checkpoint a running analysis, crash a rank
//! mid-recombination, restore the rank from the snapshot and converge to
//! the same answer as an uninterrupted run.
//!
//! ```text
//! cargo run --release --example resume_after_crash
//! ```

use anytime_anywhere::core::{
    AnytimeEngine, ClusterError, CoreError, EngineConfig, FaultPlan, Snapshot,
};
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};

fn main() {
    let graph =
        barabasi_albert(1_000, 3, WeightModel::Unit, 42).expect("generator parameters valid");
    let config = EngineConfig::with_procs(8);

    // Reference: an uninterrupted run on the same graph.
    let mut reference = AnytimeEngine::new(graph.clone(), config.clone()).expect("engine");
    reference.run_to_convergence();
    let expected = reference.closeness();

    // Victim: checkpoint every 2 RC steps, and rank 3 dies at superstep 6.
    let mut engine = AnytimeEngine::new(graph, config).expect("engine");
    engine.inject_fault(FaultPlan::at(3, 6));

    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    let result = loop {
        match engine.rc_step_checked() {
            Ok(true) if engine.rc_steps_done() % 2 == 0 => {
                snapshots.push(engine.checkpoint_bytes().expect("checkpoint"));
            }
            Ok(true) => {}
            other => break other,
        }
    };

    match result {
        Err(CoreError::Cluster(ClusterError::RankFailed { rank, superstep })) => {
            println!(
                "rank {rank} failed at superstep {superstep}; {} snapshot(s) on disk",
                snapshots.len()
            );
            // Recover the dead rank from the latest snapshot (which may
            // predate the failure — min-merge monotonicity makes the
            // replay safe) and finish the analysis.
            let latest = Snapshot::from_bytes(snapshots.last().expect("a snapshot was taken"))
                .expect("snapshot readable");
            engine.recover_rank(rank, &latest).expect("recovery");
            let summary = engine.run_to_convergence();
            println!(
                "recovered and re-converged in {} more RC steps ({} restores recorded)",
                summary.steps,
                engine.stats().restores
            );
        }
        other => panic!("expected the armed fault to fire, got {other:?}"),
    }

    // The recovered run ends at exactly the same closeness values.
    assert_eq!(engine.closeness(), expected);
    println!("closeness after recovery is bit-identical to the uninterrupted run ✓");

    // A full engine restore from the snapshot also resumes cleanly.
    let bytes = snapshots.last().expect("a snapshot was taken");
    let mut resumed =
        AnytimeEngine::restore(&bytes[..], EngineConfig::with_procs(8)).expect("restore");
    resumed.run_to_convergence();
    assert_eq!(resumed.closeness(), expected);
    println!(
        "cold restore from snapshot (RC step {}) re-converged to the same fixed point ✓",
        resumed.rc_steps_done()
    );
}
