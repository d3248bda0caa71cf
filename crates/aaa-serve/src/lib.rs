//! # aaa-serve — snapshot-isolated query serving
//!
//! The read side of the engine's **ingest → compute → publish** pipeline.
//! [`ServeHandle`] wraps the engine's shared [`ViewCell`] and answers
//! point lookups, top-k queries, error-bound queries, and epoch metadata
//! from the **latest published epoch** — entirely `&self`, `Send + Sync`,
//! and without ever touching the engine. Any number of reader threads can
//! query while the BSP loop, chaos layer, and checkpointing keep running
//! on the writer thread.
//!
//! The isolation contract readers get:
//!
//! * **never torn** — a query sees one complete epoch, never a mix of two
//!   (views are immutable; the cell swaps whole `Arc`s);
//! * **never stale beyond the latest epoch** — `view()` returns the most
//!   recently published epoch at the instant of the load;
//! * **monotone** — epoch ids observed by any single reader through one
//!   handle never decrease.
//!
//! ```
//! use aaa_core::{AnytimeEngine, EngineConfig};
//! use aaa_graph::generators::{barabasi_albert, WeightModel};
//! use aaa_serve::ServeHandle;
//!
//! let g = barabasi_albert(120, 2, WeightModel::Unit, 7).unwrap();
//! let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
//! let handle = ServeHandle::attach(&engine);
//! let reader = std::thread::spawn(move || {
//!     // Queries are answered from published epochs, off the engine.
//!     handle.top_k(5)
//! });
//! engine.run_to_convergence();
//! assert_eq!(reader.join().unwrap().len(), 5);
//! ```

use aaa_core::publish::{PublishedView, ViewCell};
use aaa_core::{MetricKind, MetricMask};
use aaa_graph::VertexId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed serving errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// [`ServeHandle::wait_for_epoch_deadline`] gave up: the published
    /// epoch never reached `target` within the deadline — typically the
    /// writer died or stopped publishing.
    EpochTimeout {
        /// The epoch the caller was waiting for.
        target: u64,
        /// The latest epoch actually published when the wait expired.
        latest: u64,
        /// How long the caller waited.
        waited: Duration,
    },
    /// A `*_for` query named a metric the published view does not carry
    /// (the engine was not configured to maintain it).
    MetricUnavailable {
        /// The metric the caller asked for.
        requested: MetricKind,
        /// The metrics the view actually carries.
        available: MetricMask,
    },
    /// [`ServeHandle::wait_for_bound`] gave up: no epoch satisfying the
    /// requested error bound was published within the deadline.
    BoundTimeout {
        /// The vertex whose bound was being watched.
        vertex: VertexId,
        /// The latest epoch inspected when the wait expired.
        epoch: u64,
        /// How long the caller waited.
        waited: Duration,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EpochTimeout { target, latest, waited } => {
                write!(f, "epoch {target} not published within {waited:?} (latest epoch: {latest})")
            }
            ServeError::MetricUnavailable { requested, available } => {
                write!(f, "metric {requested} not published (view carries: {available})")
            }
            ServeError::BoundTimeout { vertex, epoch, waited } => {
                write!(
                    f,
                    "no epoch met the requested bound for vertex {vertex} within {waited:?} \
                     (latest epoch: {epoch})"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Epoch metadata for one published view — what a dashboard or freshness
/// monitor needs without the O(n) payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochInfo {
    /// Strictly-increasing epoch id (0 = nothing published yet).
    pub epoch: u64,
    /// RC steps the engine had completed at publish time.
    pub rc_steps: usize,
    /// Dynamic changes applied at publish time.
    pub changes_applied: u64,
    /// Whether the engine had reached quiescence at publish time.
    pub converged: bool,
    /// Vertices covered by the view.
    pub vertices: usize,
    /// Centrality columns the view carries (closeness always; extras per
    /// [`aaa_core::EngineConfig::metrics`]).
    pub metrics: MetricMask,
}

/// A cloneable, thread-safe query handle over the engine's published
/// views. Obtain one with [`ServeHandle::attach`] (or from a raw cell via
/// [`ServeHandle::new`]), clone it freely, and move clones into reader
/// threads.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    cell: Arc<ViewCell>,
}

impl ServeHandle {
    /// Wraps a view cell directly (e.g. one forwarded across a process
    /// boundary in a larger system).
    pub fn new(cell: Arc<ViewCell>) -> Self {
        Self { cell }
    }

    /// Attaches to a live engine's publish layer. The handle stays valid
    /// for the engine's whole life — including across checkpoint
    /// fallbacks, which keep the cell identity.
    pub fn attach(engine: &aaa_core::AnytimeEngine) -> Self {
        Self::new(engine.view_cell())
    }

    /// The latest published view, as an immutable snapshot the caller can
    /// hold as long as it likes. One atomic load; never blocks the
    /// compute loop.
    pub fn view(&self) -> Arc<PublishedView> {
        self.cell.load()
    }

    /// The latest epoch id.
    pub fn epoch(&self) -> u64 {
        self.view().epoch
    }

    /// Closeness of `v` in the latest epoch; `None` if `v` is out of
    /// range (e.g. submitted but not yet drained).
    pub fn point(&self, v: VertexId) -> Option<f64> {
        self.view().point(v)
    }

    /// Batched point lookup: closeness of every id in `ids`, answered
    /// against **one** consistent epoch (a single view load amortized
    /// across the batch — and no epoch can change mid-batch, which
    /// per-`point` loops cannot guarantee).
    pub fn points(&self, ids: &[VertexId]) -> Vec<Option<f64>> {
        self.view().points(ids)
    }

    /// The `k` most central vertices in the latest epoch. `O(k)` for
    /// `k ≤` [`aaa_core::TOPK_SERVE_CAP`] via the view's top-k snapshot;
    /// larger `k` falls back to a full rescan.
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        self.view().top_k(k)
    }

    /// Certified bound on `|exact − closeness|` for `v` in the latest
    /// epoch; `None` when the engine publishes without bounds
    /// ([`aaa_core::BoundsMode::None`]) or `v` is out of range.
    pub fn error_bound(&self, v: VertexId) -> Option<f64> {
        self.view().error_bound(v)
    }

    /// Metadata of the latest epoch.
    pub fn metadata(&self) -> EpochInfo {
        let view = self.view();
        EpochInfo {
            epoch: view.epoch,
            rc_steps: view.rc_steps,
            changes_applied: view.changes_applied,
            converged: view.converged,
            vertices: view.num_vertices(),
            metrics: view.metrics(),
        }
    }

    // ----------------------------------------------------------------
    // Metric-parametric queries
    // ----------------------------------------------------------------
    //
    // The closeness-named methods above are the `MetricKind::Closeness`
    // defaults of these; every `*_for` answers from one view load and
    // returns a typed `MetricUnavailable` (never a panic or a silent
    // zero) when the engine is not maintaining the requested column.

    fn checked_view(&self, kind: MetricKind) -> Result<Arc<PublishedView>, ServeError> {
        let view = self.view();
        if !view.has_metric(kind) {
            return Err(ServeError::MetricUnavailable {
                requested: kind,
                available: view.metrics(),
            });
        }
        Ok(view)
    }

    /// Score of `v` in the `kind` column of the latest epoch; `Ok(None)`
    /// if `v` is out of range.
    pub fn point_for(&self, kind: MetricKind, v: VertexId) -> Result<Option<f64>, ServeError> {
        Ok(self.checked_view(kind)?.metric_point(kind, v))
    }

    /// The `k` highest-scoring vertices in the `kind` column (ties broken
    /// by lower id, the same total order every metric path uses).
    pub fn top_k_for(
        &self,
        kind: MetricKind,
        k: usize,
    ) -> Result<Vec<(VertexId, f64)>, ServeError> {
        let view = self.checked_view(kind)?;
        Ok(view.metric_top_k(kind, k).expect("checked metric present"))
    }

    /// Parks (condvar wait, no spinning) until the published epoch is
    /// ≥ `epoch` and returns the first such view. Test/example helper —
    /// production readers should just `view()` whatever is current, or
    /// use [`ServeHandle::wait_for_epoch_deadline`], which cannot hang
    /// when the writer dies.
    pub fn wait_for_epoch(&self, epoch: u64) -> Arc<PublishedView> {
        self.cell.wait_for_epoch(epoch)
    }

    /// Like [`ServeHandle::wait_for_epoch`], but gives up after `deadline`
    /// with a typed [`ServeError::EpochTimeout`] instead of waiting
    /// forever — the reader-side failure detector for a dead or wedged
    /// writer. Blocked readers park on the cell's condvar, so a long
    /// deadline does not burn a core.
    pub fn wait_for_epoch_deadline(
        &self,
        epoch: u64,
        deadline: Duration,
    ) -> Result<Arc<PublishedView>, ServeError> {
        match self.cell.wait_for_epoch_until(epoch, Instant::now() + deadline) {
            Ok(view) => Ok(view),
            Err(_) => {
                // The watermark trails the slot by an instant during a
                // store; re-load so `latest` (and a racing success) is
                // judged against the actual published view.
                let view = self.view();
                if view.epoch >= epoch {
                    return Ok(view);
                }
                Err(ServeError::EpochTimeout {
                    target: epoch,
                    latest: view.epoch,
                    waited: deadline,
                })
            }
        }
    }

    /// Watch query: parks until some published epoch answers `v` to
    /// within `eps` — certified bound `≤ eps` in
    /// [`aaa_core::BoundsMode::Certified`], or a converged epoch covering
    /// `v` when the engine publishes without bounds (a converged answer
    /// is exact, bound 0) — and returns the first such view. Epochs are
    /// inspected as they land (condvar parking on the view cell, no
    /// spin-polling); epochs that don't satisfy the predicate are skipped
    /// without waking the caller's logic more than once each. Gives up
    /// after `deadline` with [`ServeError::BoundTimeout`].
    pub fn wait_for_bound(
        &self,
        v: VertexId,
        eps: f64,
        deadline: Duration,
    ) -> Result<Arc<PublishedView>, ServeError> {
        let until = Instant::now() + deadline;
        let mut view = self.view();
        loop {
            if bound_satisfied(&view, v, eps) {
                return Ok(view);
            }
            match self.cell.wait_for_epoch_until(view.epoch + 1, until) {
                Ok(next) => view = next,
                Err(_) => {
                    // Watermark race: a store may have landed as the wait
                    // expired — judge the actual latest view once more.
                    let latest = self.view();
                    if latest.epoch > view.epoch && bound_satisfied(&latest, v, eps) {
                        return Ok(latest);
                    }
                    return Err(ServeError::BoundTimeout {
                        vertex: v,
                        epoch: latest.epoch,
                        waited: deadline,
                    });
                }
            }
        }
    }
}

/// The `wait_for_bound` predicate: is this epoch's answer for `v` within
/// `eps` of exact? A converged epoch is exact (bound 0) whatever the
/// publish mode — the certified interval is conservative and need not
/// collapse at quiescence; an unconverged epoch satisfies only via a
/// published certified bound.
fn bound_satisfied(view: &PublishedView, v: VertexId, eps: f64) -> bool {
    if view.converged && view.point(v).is_some() {
        return true;
    }
    view.error_bound(v).is_some_and(|b| b <= eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_core::{AnytimeEngine, BoundsMode, EngineConfig};
    use aaa_graph::generators::{barabasi_albert, WeightModel};

    fn engine(n: usize, procs: usize) -> AnytimeEngine {
        let g = barabasi_albert(n, 2, WeightModel::Unit, 11).unwrap();
        AnytimeEngine::new(g, EngineConfig::deterministic(procs)).unwrap()
    }

    #[test]
    fn handle_answers_from_published_epochs() {
        let mut e = engine(80, 3);
        let h = ServeHandle::attach(&e);
        // Construction published the IA answer as epoch 1.
        let meta = h.metadata();
        assert_eq!(meta.epoch, 1);
        assert_eq!(meta.vertices, 80);
        assert!(!meta.converged);
        e.run_to_convergence();
        let meta = h.metadata();
        assert!(meta.converged);
        assert!(meta.epoch > 1);
        assert_eq!(h.epoch(), meta.epoch);
        assert_eq!(h.point(0), Some(h.view().closeness()[0]));
        assert_eq!(h.point(80 as VertexId), None);
        assert_eq!(h.top_k(3).len(), 3);
        // Batched lookups answer from one consistent epoch and agree with
        // point-by-point queries.
        let batch = h.points(&[0, 5, 80, 12]);
        assert_eq!(batch, vec![h.point(0), h.point(5), None, h.point(12)]);
        // The served top-k agrees with the full-rescan oracle.
        let view = h.view();
        assert_eq!(view.top_k(10), view.top_k_rescan(10));
        // Converged answer matches the engine's own query path.
        assert_eq!(h.view().closeness(), e.closeness().as_slice());
    }

    #[test]
    fn error_bounds_surface_only_in_certified_mode() {
        let g = barabasi_albert(60, 2, WeightModel::UniformRange { lo: 1, hi: 5 }, 3).unwrap();
        let mut cfg = EngineConfig::deterministic(3);
        cfg.publish_bounds = BoundsMode::Certified;
        let mut e = AnytimeEngine::new(g, cfg).unwrap();
        let h = ServeHandle::attach(&e);
        assert!(h.error_bound(0).is_some());
        e.run_to_convergence();
        let view = h.view();
        assert!(view.has_bounds());
        // At convergence the certified interval collapses onto the exact
        // closeness for reachable vertices.
        for v in 0..60u32 {
            assert!(view.error_bound(v).unwrap() >= 0.0);
        }
        let plain = engine(60, 3);
        let h2 = ServeHandle::attach(&plain);
        assert_eq!(h2.error_bound(0), None);
    }

    #[test]
    fn concurrent_readers_query_while_the_engine_converges() {
        let mut e = engine(150, 4);
        let h = ServeHandle::attach(&e);
        let n = e.graph().num_vertices() as u32;
        // Every reader queries the IA view before the writer starts, so
        // each one provably reads across the convergence however late it
        // is first scheduled (a release-profile engine converges n = 150
        // before a fresh thread gets its first slice).
        let started = Arc::new(std::sync::Barrier::new(5));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (h, started) = (h.clone(), started.clone());
                std::thread::spawn(move || {
                    let mut last_epoch = 0;
                    let mut lookups = 0u64;
                    loop {
                        let view = h.view();
                        assert!(view.epoch >= last_epoch, "epoch went backwards");
                        for v in 0..n {
                            // Every vertex answers in every epoch (views
                            // are complete, never partial).
                            assert!(view.point(v).is_some());
                            lookups += 1;
                        }
                        if last_epoch == 0 {
                            started.wait();
                        }
                        last_epoch = view.epoch;
                        if view.converged {
                            return lookups;
                        }
                    }
                })
            })
            .collect();
        // The writer thread drives the BSP loop while readers hammer away.
        started.wait();
        let summary = e.run_to_convergence();
        assert!(summary.converged);
        for r in readers {
            assert!(r.join().expect("reader panicked") > 0);
        }
    }

    #[test]
    fn wait_with_deadline_times_out_when_the_writer_dies() {
        let mut e = engine(60, 2);
        let h = ServeHandle::attach(&e);
        e.run_to_convergence();
        let published = h.epoch();
        // Kill the publishing side mid-wait: the engine (the only writer)
        // is dropped while a reader waits for an epoch that will never
        // come. The deadline must surface as a typed error, not a hang.
        let waiter = {
            let h = h.clone();
            std::thread::spawn(move || {
                h.wait_for_epoch_deadline(published + 1, Duration::from_millis(200))
            })
        };
        drop(e);
        match waiter.join().expect("waiter panicked") {
            Err(ServeError::EpochTimeout { target, latest, waited }) => {
                assert_eq!(target, published + 1);
                assert_eq!(latest, published);
                assert_eq!(waited, Duration::from_millis(200));
            }
            Ok(view) => panic!("writer is dead but epoch {} appeared", view.epoch),
            Err(other) => panic!("expected EpochTimeout, got {other:?}"),
        }
    }

    #[test]
    fn wait_with_deadline_returns_early_when_the_epoch_lands() {
        let mut e = engine(60, 2);
        let h = ServeHandle::attach(&e);
        let target = h.epoch() + 1;
        let waiter = {
            let h = h.clone();
            std::thread::spawn(move || h.wait_for_epoch_deadline(target, Duration::from_secs(30)))
        };
        e.run_to_convergence();
        let view = waiter.join().unwrap().expect("epoch was published before the deadline");
        assert!(view.epoch >= target);
    }

    #[test]
    fn metric_queries_answer_or_fail_typed() {
        use aaa_core::MetricKind;
        // Closeness-only engine: betweenness queries fail typed, never
        // panic or return zeros.
        let mut e = engine(60, 3);
        let h = ServeHandle::attach(&e);
        e.run_to_convergence();
        let meta = h.metadata();
        assert!(meta.metrics.contains(MetricKind::Closeness));
        assert!(!meta.metrics.contains(MetricKind::Betweenness));
        match h.point_for(MetricKind::Betweenness, 0) {
            Err(ServeError::MetricUnavailable { requested, available }) => {
                assert_eq!(requested, MetricKind::Betweenness);
                assert_eq!(available, meta.metrics);
            }
            other => panic!("expected MetricUnavailable, got {other:?}"),
        }
        assert!(h.top_k_for(MetricKind::Betweenness, 3).is_err());
        // The closeness defaults and the `*_for` spellings agree.
        assert_eq!(h.point_for(MetricKind::Closeness, 5).unwrap(), h.point(5));
        assert_eq!(h.top_k_for(MetricKind::Closeness, 4).unwrap(), h.top_k(4));

        // Betweenness-enabled engine: the column serves.
        let g = barabasi_albert(60, 2, WeightModel::Unit, 11).unwrap();
        let mut cfg = EngineConfig::deterministic(3);
        cfg.metrics = vec![MetricKind::Betweenness];
        let mut e = AnytimeEngine::new(g, cfg).unwrap();
        let h = ServeHandle::attach(&e);
        e.run_to_convergence();
        assert!(h.metadata().metrics.contains(MetricKind::Betweenness));
        let col = h.view().metric_values(MetricKind::Betweenness).unwrap();
        assert_eq!(h.point_for(MetricKind::Betweenness, 1).unwrap(), Some(col[1]));
        assert_eq!(h.point_for(MetricKind::Betweenness, 60).unwrap(), None);
        let top = h.top_k_for(MetricKind::Betweenness, 5).unwrap();
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
    }

    #[test]
    fn wait_for_bound_parks_until_an_epoch_satisfies() {
        // Certified mode: the bound tightens as RC progresses.
        let g = barabasi_albert(80, 2, WeightModel::UniformRange { lo: 1, hi: 4 }, 9).unwrap();
        let mut cfg = EngineConfig::deterministic(3);
        cfg.publish_bounds = BoundsMode::Certified;
        let mut e = AnytimeEngine::new(g, cfg).unwrap();
        let h = ServeHandle::attach(&e);
        let waiter = {
            let h = h.clone();
            std::thread::spawn(move || h.wait_for_bound(7, 1e-12, Duration::from_secs(30)))
        };
        e.run_to_convergence();
        let view = waiter.join().unwrap().expect("bound reached at convergence");
        assert!(view.converged || view.error_bound(7).unwrap() <= 1e-12);

        // BoundsMode::None: a converged epoch is exact, so it satisfies
        // any eps; an unconverged one never does.
        let mut e = engine(60, 2);
        let h = ServeHandle::attach(&e);
        assert!(matches!(
            h.wait_for_bound(3, 0.5, Duration::from_millis(50)),
            Err(ServeError::BoundTimeout { vertex: 3, .. })
        ));
        e.run_to_convergence();
        let view = h.wait_for_bound(3, 0.0, Duration::from_secs(1)).unwrap();
        assert!(view.converged);
        // Out-of-range vertices can never satisfy: typed timeout.
        match h.wait_for_bound(60, 10.0, Duration::from_millis(50)) {
            Err(ServeError::BoundTimeout { vertex, epoch, waited }) => {
                assert_eq!(vertex, 60);
                assert_eq!(epoch, h.epoch());
                assert_eq!(waited, Duration::from_millis(50));
            }
            other => panic!("expected BoundTimeout, got {other:?}"),
        }
    }

    #[test]
    fn wait_for_epoch_returns_a_fresh_enough_view() {
        let mut e = engine(60, 2);
        let h = ServeHandle::attach(&e);
        let target = h.epoch() + 1;
        let waiter = {
            let h = h.clone();
            std::thread::spawn(move || h.wait_for_epoch(target).epoch)
        };
        e.run_to_convergence();
        assert!(waiter.join().unwrap() >= target);
    }
}
