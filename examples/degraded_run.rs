//! Degraded-mode anytime answers under unrecoverable faults.
//!
//! Arms a chaos plan whose faults never stop, gives the supervisor almost
//! no retry budget, and shows what the engine hands back when it gives up:
//! the current closeness estimate plus a certified per-vertex error bound.
//! The bound is then validated against the exact (oracle) closeness, and
//! the run finishes by disarming chaos and reconverging exactly — degraded
//! state is stale, never poisoned.
//!
//! Run with: `cargo run --release --example degraded_run`

use anytime_anywhere::core::{AnytimeEngine, ChaosPlan, EngineConfig, RetryPolicy};
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::Csr;

fn main() {
    let g = barabasi_albert(300, 2, WeightModel::UniformRange { lo: 1, hi: 5 }, 11)
        .expect("generator params valid");
    let exact = closeness_exact(&Csr::from_adj(&g));

    let mut engine =
        AnytimeEngine::new(g, EngineConfig::deterministic(8)).expect("engine construction");
    // Faults forever (infinite horizon), almost no patience: the supervised
    // loop is forced onto the degraded path quickly.
    engine.set_chaos(ChaosPlan::seeded(7, 0.8, u64::MAX));
    let policy = RetryPolicy { max_attempts: 2, max_fallbacks: 1 };
    let run = engine.run_supervised(&policy).expect("supervised run");

    let report = run.degraded.expect("endless faults with a tiny budget must degrade");
    println!("supervised run gave up after {} steps:", run.summary.steps);
    println!("  reason:   {}", report.reason);
    println!(
        "  faults:   {} injected ({} dropped, {} duplicated, {} delayed, {} corrupted, {} stalls)",
        report.faults.injected(),
        report.faults.dropped,
        report.faults.duplicated,
        report.faults.delayed,
        report.faults.corrupted,
        report.faults.stalls,
    );
    println!(
        "  repairs:  {} rows retransmitted, {} fallbacks",
        report.faults.retransmits, run.fallbacks
    );

    // The degraded answer: estimate ± certified bound, versus the oracle.
    println!("\n  worst ten vertices by certified bound:");
    println!(
        "  {:>6}  {:>10}  {:>10}  {:>10}  {:>10}",
        "vertex", "estimate", "exact", "|error|", "bound"
    );
    let mut by_bound: Vec<usize> = (0..report.bound.len()).collect();
    by_bound.sort_by(|&a, &b| report.bound[b].total_cmp(&report.bound[a]));
    for &v in by_bound.iter().take(10) {
        let err = (exact[v] - report.estimate[v]).abs();
        println!(
            "  {:>6}  {:>10.6}  {:>10.6}  {:>10.6}  {:>10.6}",
            v, report.estimate[v], exact[v], err, report.bound[v]
        );
    }
    println!("\n  max bound:  {:.6}", report.max_bound());
    println!("  mean bound: {:.6}", report.mean_bound());
    assert!(
        report.certifies(&exact),
        "certification failure: some |exact − estimate| exceeded its bound"
    );
    println!("  certified:  every |exact − estimate| ≤ bound ✓");

    // Recovery: the network heals (chaos disarmed) and the same engine
    // walks from the degraded state to the exact fixed point.
    engine.set_chaos(ChaosPlan::none());
    let summary = engine.run_to_convergence();
    let healed = engine.closeness();
    let worst = healed.iter().zip(&exact).map(|(h, e)| (h - e).abs()).fold(0.0f64, f64::max);
    println!(
        "\nafter the network healed: reconverged in {} steps, max |error| = {:.2e}",
        summary.steps, worst
    );
    assert!(summary.converged && worst < 1e-12);
}
