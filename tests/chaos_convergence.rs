//! The chaos-tolerance contract: under any seeded fault plan with a finite
//! horizon (faults eventually stop — the partial-synchrony GST assumption),
//! the supervised convergence loop must reach the **same fixed point as a
//! clean run, bit for bit**, on both executors. Min-merge is idempotent and
//! commutative and DV rows are monotone upper bounds, so drops, duplicates,
//! reorders, delays, corruption-discards, and stalls can cost time but never
//! correctness — this suite checks exactly that.
//!
//! The CI chaos-soak job sweeps `CHAOS_SOAK_SEED` to vary the fault plans
//! across matrix entries without touching the code.

use anytime_anywhere::core::changes::preferential_batch;
use anytime_anywhere::core::{AnytimeEngine, AssignStrategy, ChaosPlan, EngineConfig, RetryPolicy};
use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::Csr;
use anytime_anywhere::runtime::ExecutionMode;
use proptest::prelude::*;

/// Extra seed material from the CI soak matrix (0 for local runs).
fn soak_seed() -> u64 {
    std::env::var("CHAOS_SOAK_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// Property cases per suite: `AAA_SOAK_CASES` stretches the horizon for
/// the nightly soak without touching the fast default.
fn soak_cases(default: u32) -> u32 {
    std::env::var("AAA_SOAK_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x
}

fn config(procs: usize, mode: ExecutionMode) -> EngineConfig {
    let mut c = EngineConfig::with_procs(procs);
    c.cluster.mode = mode;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(soak_cases(24)))]

    /// Random graph × random fault plan × both executors: the supervised
    /// run must converge (not degrade) and land on the clean fixed point.
    #[test]
    fn supervised_run_reconverges_bit_identically(
        n in 40usize..100,
        gseed in 0u64..1_000,
        cseed in 0u64..1_000,
        rate_permille in 1u64..350,
        procs in 2usize..6,
    ) {
        let rate = rate_permille as f64 / 1_000.0;
        let g = barabasi_albert(n, 2, WeightModel::UniformRange { lo: 1, hi: 8 }, gseed)
            .unwrap();
        for mode in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
            let mut clean = AnytimeEngine::new(g.clone(), config(procs, mode)).unwrap();
            prop_assert!(clean.run_to_convergence().converged);

            let mut chaotic = AnytimeEngine::new(g.clone(), config(procs, mode)).unwrap();
            chaotic.set_chaos(ChaosPlan::seeded(mix(cseed, soak_seed()), rate, 24));
            let policy = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
            let run = chaotic.run_supervised(&policy).unwrap();
            prop_assert!(
                run.converged(),
                "mode {:?}: supervised run degraded under an eventually-quiet plan: {:?}",
                mode,
                run.degraded.map(|d| d.reason)
            );
            prop_assert_eq!(chaotic.closeness(), clean.closeness());
            prop_assert_eq!(chaotic.distances(), clean.distances());
        }
    }
}

/// The same seeded plan must injure the run identically on both executors:
/// fault fates are drawn in the driver's sequential routing phase, so the
/// executor threading cannot perturb them.
#[test]
fn injected_faults_are_executor_invariant() {
    let g = barabasi_albert(80, 2, WeightModel::UniformRange { lo: 1, hi: 6 }, 3).unwrap();
    let run = |mode| {
        let mut e = AnytimeEngine::new(g.clone(), config(4, mode)).unwrap();
        e.set_chaos(ChaosPlan::seeded(mix(42, soak_seed()), 0.25, 24));
        let run =
            e.run_supervised(&RetryPolicy { max_attempts: 64, ..RetryPolicy::default() }).unwrap();
        let stats = e.stats();
        (run, stats.messages, stats.bytes, stats.faults, e.closeness())
    };
    let seq = run(ExecutionMode::Sequential);
    let par = run(ExecutionMode::Parallel);
    assert_eq!(seq, par);
    assert!(seq.3.injected() > 0, "a 25% plan over a whole run must inject something");
}

/// Retried/verified repair traffic is visible in the counters: a run that
/// survived injected faults must have recorded retransmissions.
#[test]
fn repair_work_is_accounted() {
    let g = barabasi_albert(60, 2, WeightModel::Unit, 5).unwrap();
    let mut e = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
    e.set_chaos(ChaosPlan::seeded(9, 0.3, 24));
    let run =
        e.run_supervised(&RetryPolicy { max_attempts: 64, ..RetryPolicy::default() }).unwrap();
    assert!(run.converged());
    let faults = e.stats().faults;
    assert!(faults.injected() > 0);
    assert!(
        faults.retransmits > 0,
        "surviving {} injected faults requires repair traffic",
        faults.injected()
    );
    assert!(run.retries + run.verification_passes > 0);
}

/// No delayed row crosses a migration. The delay queue matches payloads by
/// type, and an RC row and a migrated row are the same type: a row delayed
/// from before a Repartition-S wave (or a `rebalance()`) would be handed to
/// the migration's consume and installed as a migrated row at a rank that
/// does not own its vertex. Under an armed plan both end where every other
/// run ends — no panic, and exact at quiescence.
#[test]
fn a_migration_under_an_armed_plan_installs_no_delayed_row() {
    for seed in 0..40u64 {
        for wave in [true, false] {
            let g = barabasi_albert(70, 2, WeightModel::Unit, seed).unwrap();
            let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
            engine.set_chaos(ChaosPlan::seeded(mix(seed ^ 0xabc, soak_seed()), 0.3, 40));
            for _ in 0..2 {
                let _ = engine.rc_step_checked();
            }
            if wave {
                let batch = preferential_batch(engine.graph(), 12, 2, seed);
                engine
                    .apply_vertex_additions(&batch, AssignStrategy::Repartition { seed })
                    .unwrap();
            } else {
                engine.rebalance(seed).unwrap();
            }
            let policy = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
            let run = engine.run_supervised(&policy).unwrap();
            let ctx = format!("seed {seed}, {}", if wave { "Repartition-S" } else { "rebalance" });
            assert!(run.converged(), "{ctx}: degraded: {:?}", run.degraded.map(|d| d.reason));
            let csr = Csr::from_adj(engine.graph());
            assert!(engine.distances() == apsp_dijkstra(&csr), "{ctx}: converged wrong");
            let (got, want) = (engine.closeness(), closeness_exact(&csr));
            assert!(
                got.iter().map(|c| c.to_bits()).eq(want.iter().map(|c| c.to_bits())),
                "{ctx}: closeness is not bit-equal to the oracle"
            );
        }
    }
}

/// The routing loop, the fate draw and the backoff schedule each exist once;
/// what they add up to is pinned. Ten supervised runs (five seeds × rates
/// 0.1 / 0.3): simulated communication time to the bit, traffic, retries
/// and every fault counter are the numbers the two routing paths, two draws
/// and two schedules produced before they were folded. A change of the sim
/// clock or of chaos accounting moves this on purpose, with the baselines:
/// the landmark rows that seed IA moved it, as one more priced collective
/// per build and a shorter, different RC run under the same fates.
#[test]
fn supervised_chaos_accounting_is_pinned() {
    let g = barabasi_albert(80, 2, WeightModel::UniformRange { lo: 1, hi: 6 }, 3).unwrap();
    let rows: Vec<String> = [0.1, 0.3]
        .into_iter()
        .flat_map(|rate| (1..=5u64).map(move |seed| (rate, seed)))
        .map(|(rate, seed)| {
            let mut e = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
            e.set_chaos(ChaosPlan::seeded(seed, rate, 24));
            let policy = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
            let run = e.run_supervised(&policy).unwrap();
            let s = e.stats();
            format!(
                "rate {rate} seed {seed}: comm {:#018x} msgs {} bytes {} steps {} retries {} \
                 verifications {} {:?}",
                s.sim_comm_us.to_bits(),
                s.messages,
                s.bytes,
                s.supersteps,
                run.retries,
                run.verification_passes,
                s.faults
            )
        })
        .collect();
    let digest = rows.iter().flat_map(|r| r.bytes()).fold(0u64, |h, b| mix(h, b.into()));
    assert_eq!(digest, 3962215876290636000, "accounting moved:\n{}", rows.join("\n"));
}

/// The verified fault total lives on the engine, not in one run. Faults a
/// plan injects before `run_supervised` — here by `rc_step_checked` steps
/// whose incidents the caller ignores — are re-announced once the run
/// reaches quiescence, although the plan's horizon has passed and the run
/// itself sees no fault: one verification pass, then the exact answer. A
/// second run has nothing left to verify.
#[test]
fn faults_injected_before_a_supervised_run_cost_it_one_verification_pass() {
    let g = barabasi_albert(70, 2, WeightModel::UniformRange { lo: 1, hi: 6 }, 11).unwrap();
    let horizon = 6;
    let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    engine.set_chaos(ChaosPlan::seeded(5, 0.5, horizon));
    while engine.stats().supersteps < horizon {
        let _ = engine.rc_step_checked();
    }
    let injected = engine.stats().faults.injected();
    assert!(injected > 0, "a 50% plan over {horizon} supersteps must inject something");

    let policy = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
    let run = engine.run_supervised(&policy).unwrap();
    assert_eq!(engine.stats().faults.injected(), injected, "the horizon has passed");
    assert!(run.converged());
    assert_eq!((run.retries, run.verification_passes), (0, 1));
    let csr = Csr::from_adj(&g);
    assert!(engine.distances() == apsp_dijkstra(&csr), "converged wrong");
    let (got, want) = (engine.closeness(), closeness_exact(&csr));
    assert!(got.iter().map(|c| c.to_bits()).eq(want.iter().map(|c| c.to_bits())));

    assert_eq!(engine.run_supervised(&policy).unwrap().verification_passes, 0);
}
