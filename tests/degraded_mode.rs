//! Degraded-mode answers: when faults never stop and the retry/fallback
//! budgets run out, `run_supervised` must still return `Ok` — with the
//! current anytime estimate and a **certified** per-vertex error bound that
//! provably covers the exact closeness. Also checks the inverse contract:
//! disarming chaos afterwards lets the same engine reconverge exactly, and
//! an engine that never arms chaos pays nothing for the feature.

use anytime_anywhere::core::{
    AnytimeEngine, BoundsMode, ChaosPlan, DegradedReason, EngineConfig, RetryPolicy, ViewCell,
};
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::Csr;
use anytime_anywhere::observe::{EventSink, SpanEvent, SpanKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn degraded_answer_carries_a_certified_bound() {
    let g = barabasi_albert(60, 2, WeightModel::UniformRange { lo: 1, hi: 5 }, 11).unwrap();
    let exact = closeness_exact(&Csr::from_adj(&g));
    let mut e = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    // Faults never stop (infinite horizon) and the supervisor is given no
    // budget at all: the first detectable incident forces the degraded path.
    e.set_chaos(ChaosPlan::seeded(7, 0.8, u64::MAX));
    let policy = RetryPolicy { max_attempts: 0, max_fallbacks: 0 };
    let run = e.run_supervised(&policy).unwrap();

    assert!(!run.summary.converged);
    let report = run.degraded.expect("no budget + endless faults must degrade");
    assert!(matches!(report.reason, DegradedReason::RetriesExhausted { .. }));
    assert!(report.faults.injected() > 0, "an 80% plan must have injected something");
    assert_eq!(report.estimate.len(), exact.len());
    assert_eq!(report.bound.len(), exact.len());
    // The acceptance criterion: the bound covers the measured error.
    for (v, (&ex, (&est, &b))) in
        exact.iter().zip(report.estimate.iter().zip(&report.bound)).enumerate()
    {
        assert!((ex - est).abs() <= b + 1e-12, "vertex {v}: |{ex} − {est}| > bound {b}");
    }
    assert!(report.certifies(&exact));
    assert!(report.max_bound() >= report.mean_bound());

    // Recovery contract: disarm chaos and the same engine walks from the
    // degraded state to the exact fixed point (monotone min-merge — the
    // partial results are never poisoned, only stale).
    e.set_chaos(ChaosPlan::none());
    let summary = e.run_to_convergence();
    assert!(summary.converged);
    let mut clean = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
    clean.run_to_convergence();
    assert_eq!(e.closeness(), clean.closeness());
    assert_eq!(e.distances(), clean.distances());
}

#[test]
fn checkpoint_fallback_is_used_before_degrading() {
    let g = barabasi_albert(50, 2, WeightModel::Unit, 8).unwrap();
    let mut e = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
    e.set_chaos(ChaosPlan::seeded(21, 0.8, u64::MAX));
    // One consecutive retry, then fall back; two fallbacks allowed.
    let policy = RetryPolicy { max_attempts: 1, max_fallbacks: 2 };
    let run = e.run_supervised(&policy).unwrap();
    // Under an infinite-horizon 80% plan the run must exhaust the budget…
    let report = run.degraded.expect("endless faults must degrade eventually");
    assert!(matches!(report.reason, DegradedReason::RetriesExhausted { .. }));
    // …but only after actually spending both fallbacks.
    assert_eq!(run.fallbacks, 2);
    assert!(run.retries > 2, "each fallback resets the consecutive-attempt counter");
}

/// Holds every epoch an engine publishes to the exact answer, as it lands:
/// a sink sees the engine's `Publish` span right after the view is stored,
/// and its `Restore` span right before a checkpoint fallback's epoch.
#[derive(Debug)]
struct EveryEpoch {
    cell: Arc<ViewCell>,
    exact: Vec<f64>,
    restored: AtomicBool,
    epochs: AtomicU64,
    fallback_epochs: AtomicU64,
}

impl EventSink for EveryEpoch {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: SpanEvent) {
        match event.kind {
            SpanKind::Restore => self.restored.store(true, Ordering::Relaxed),
            SpanKind::Publish => {
                let view = self.cell.load();
                for (v, &exact) in self.exact.iter().enumerate() {
                    let (c, bound) = (view.point(v as u32).unwrap(), view.error_bound(v as u32));
                    let bound = bound.expect("a certified view bounds every vertex");
                    assert!((c - exact).abs() <= bound + 1e-12, "epoch {}, vertex {v}", view.epoch);
                }
                self.epochs.fetch_add(1, Ordering::Relaxed);
                if self.restored.swap(false, Ordering::Relaxed) {
                    self.fallback_epochs.fetch_add(1, Ordering::Relaxed);
                }
            }
            _ => {}
        }
    }
}

/// Certified bounds under supervision: through chaos and a checkpoint
/// fallback every published epoch covers the exact answer, the fallback's
/// included; the degraded answer the run ends in certifies, and no vertex's
/// degraded bound is wider than the one the latest epoch published for it.
/// (A fallback epoch that kept the rows from before the rewind would fail
/// the last check here: two of its vertices read wider.)
#[test]
fn certified_epochs_and_the_degraded_answer_cover_exact_through_a_fallback() {
    let g = barabasi_albert(50, 2, WeightModel::UniformRange { lo: 1, hi: 4 }, 5).unwrap();
    let exact = closeness_exact(&Csr::from_adj(&g));
    let mut cfg = EngineConfig::deterministic(4);
    cfg.publish_bounds = BoundsMode::Certified;
    let mut e = AnytimeEngine::new(g, cfg).unwrap();
    let sink = Arc::new(EveryEpoch {
        cell: e.view_cell(),
        exact: exact.clone(),
        restored: AtomicBool::new(false),
        epochs: AtomicU64::new(0),
        fallback_epochs: AtomicU64::new(0),
    });
    e.set_sink(sink.clone());
    e.set_chaos(ChaosPlan::seeded(46, 0.8, u64::MAX));
    let run = e.run_supervised(&RetryPolicy { max_attempts: 0, max_fallbacks: 1 }).unwrap();
    let report = run.degraded.expect("endless faults must degrade eventually");
    assert_eq!(run.fallbacks, 1);
    assert_eq!(sink.fallback_epochs.load(Ordering::Relaxed), 1, "the fallback epoch checked");
    assert!(sink.epochs.load(Ordering::Relaxed) > 2);
    assert!(report.certifies(&exact));
    let last = e.published();
    for (v, &bound) in report.bound.iter().enumerate() {
        let published = last.error_bound(v as u32).unwrap();
        assert!(bound <= published, "vertex {v}: degraded {bound} > published {published}");
    }
}

/// Acceptance criterion: chaos is zero-cost when disabled. An engine with
/// `ChaosPlan::none()` installed must match an engine that never heard of
/// chaos on every deterministic counter, inject nothing, and converge to
/// the identical result.
#[test]
fn disarmed_chaos_is_zero_cost() {
    let g = barabasi_albert(80, 2, WeightModel::UniformRange { lo: 1, hi: 4 }, 6).unwrap();
    let mut plain = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
    let mut disarmed = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
    disarmed.set_chaos(ChaosPlan::none());
    assert_eq!(disarmed.chaos_plan(), None, "none() must not arm the chaos path");

    let policy = RetryPolicy::default();
    let a = plain.run_supervised(&policy).unwrap();
    let b = disarmed.run_supervised(&policy).unwrap();
    assert!(a.converged() && b.converged());
    assert_eq!(a, b);
    assert_eq!(a.retries, 0);
    assert_eq!(a.verification_passes, 0);

    let (sa, sb) = (plain.stats(), disarmed.stats());
    assert_eq!(sa.faults.injected() + sa.faults.retransmits, 0);
    assert_eq!(sb.faults.injected() + sb.faults.retransmits, 0);
    // No fallback snapshot is taken for unarmed runs.
    assert_eq!(sa.checkpoints, 0);
    assert_eq!(sb.checkpoints, 0);
    // Deterministic counters agree exactly (wall/compute clocks jitter).
    assert_eq!(
        (sa.messages, sa.bytes, sa.supersteps, sa.collectives),
        (sb.messages, sb.bytes, sb.supersteps, sb.collectives)
    );
    assert_eq!(sa.sim_comm_us, sb.sim_comm_us);
    assert_eq!(plain.closeness(), disarmed.closeness());
}
