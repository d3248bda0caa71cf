//! Anytime-quality instrumentation and the certified quality label.
//!
//! The anytime property (§III) promises solutions whose quality improves
//! monotonically (non-decreasing) with computation. [`QualityTracker`]
//! measures that: it compares the engine's partial closeness values against
//! the exact values for the current graph and records the error per RC step.
//!
//! Without an exact reference, one interval says how good an answer is:
//! `certified_intervals`, read off hop rows it walks for exactly the rows
//! asked about. The publish layer stamps every epoch with it, and the
//! degraded answer of either driver bounds every vertex with it
//! (`DegradedReport::assemble`).

use aaa_graph::apsp::DistMatrix;
use aaa_graph::closeness::{closeness_exact, mean_relative_error, top_k};
use aaa_graph::sssp::{bfs_rows, BFS_LANES};
use aaa_graph::{edges, Dist, GraphStore, VertexId, INF};
use aaa_runtime::{ClusterError, FaultCounters};
use std::fmt;

/// One quality sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualitySample {
    /// RC steps completed when the sample was taken.
    pub rc_step: usize,
    /// Mean relative closeness error vs. exact.
    pub error: f64,
    /// Fraction of the true top-k most central vertices already identified.
    pub top_k_recall: f64,
}

/// Tracks solution quality across recombination steps.
#[derive(Debug, Clone)]
pub struct QualityTracker {
    exact: Vec<f64>,
    exact_top: Vec<u32>,
    k: usize,
    samples: Vec<QualitySample>,
}

impl QualityTracker {
    /// Computes the exact reference for `graph` (Θ(n·(m+n log n)) — meant
    /// for evaluation harnesses, not production paths). `k` sets the
    /// top-k recall metric (clamped to `n`). Works on any storage backend;
    /// the reference values are bit-identical across backends.
    pub fn new<G: GraphStore + Sync>(graph: &G, k: usize) -> Self {
        let exact = closeness_exact(graph);
        let k = k.min(exact.len()).max(1.min(exact.len()));
        let exact_top = top_k(&exact, k);
        Self { exact, exact_top, k, samples: Vec::new() }
    }

    /// Records a sample from the engine's current estimate.
    pub fn record(&mut self, rc_step: usize, estimate: &[f64]) -> QualitySample {
        assert_eq!(estimate.len(), self.exact.len(), "graph changed under the tracker");
        let error = mean_relative_error(estimate, &self.exact);
        let est_top = top_k(estimate, self.k);
        let hits = est_top.iter().filter(|v| self.exact_top.contains(v)).count();
        let recall = if self.k == 0 { 1.0 } else { hits as f64 / self.k as f64 };
        let sample = QualitySample { rc_step, error, top_k_recall: recall };
        self.samples.push(sample);
        sample
    }

    /// All samples recorded so far.
    pub fn samples(&self) -> &[QualitySample] {
        &self.samples
    }

    /// True if the recorded error never increased — the anytime guarantee
    /// for static graphs (allowing for floating-point jitter).
    pub fn error_is_monotone_nonincreasing(&self) -> bool {
        self.samples.windows(2).all(|w| w[1].error <= w[0].error + 1e-9)
    }

    /// The exact closeness values (reference).
    pub fn exact(&self) -> &[f64] {
        &self.exact
    }
}

// ----------------------------------------------------------------
// Degraded-mode answers
// ----------------------------------------------------------------

/// Why the supervised convergence loop gave up and degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradedReason {
    /// Retry and checkpoint-fallback budgets were both exhausted; `last`
    /// is the incident that broke the camel's back.
    RetriesExhausted {
        /// The final fault incident observed before giving up.
        last: ClusterError,
    },
    /// The [`MAX_RC_STEPS`](crate::policy::MAX_RC_STEPS) safety bound was
    /// hit before quiescence.
    StepBudgetExhausted,
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedReason::RetriesExhausted { last } => {
                write!(f, "retry and fallback budgets exhausted (last incident: {last})")
            }
            DegradedReason::StepBudgetExhausted => {
                write!(f, "RC step budget exhausted before quiescence")
            }
        }
    }
}

/// The degraded-mode answer: the engine's current closeness estimate plus
/// a per-vertex **certified error bound** — the anytime contract under
/// unrecoverable faults ("an answer now, with a quality label", §III).
///
/// Soundness: `|exact(v) − estimate(v)| ≤ bound(v)` for every vertex, since
/// the bound reaches both ends of `v`'s certified interval, which holds the
/// exact value (`DegradedReport::assemble`); [`DegradedReport::certifies`]
/// checks exactly that against a reference.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedReport {
    /// Why the supervised loop degraded instead of converging.
    pub reason: DegradedReason,
    /// RC steps the engine had completed when the report was taken.
    pub rc_steps: usize,
    /// Fault counters accumulated over the whole run.
    pub faults: FaultCounters,
    /// Closeness estimate per vertex (the anytime answer as-is).
    pub estimate: Vec<f64>,
    /// Certified per-vertex bound on `|exact − estimate|`.
    pub bound: Vec<f64>,
}

impl DegradedReport {
    /// The degraded answer `estimate`, each vertex bounded by the certified
    /// interval `[c_lo, c_hi]` of its row in `rows` ([`certified_intervals`]
    /// over the current `graph`): `bound(v) = max(c_est − c_lo, c_hi −
    /// c_est, 0)`, which covers the exact value wherever in the interval it
    /// lies. Both drivers assemble their degraded reports here and nowhere
    /// else.
    pub(crate) fn assemble<G: GraphStore>(
        graph: &G,
        rows: &DistMatrix,
        estimate: Vec<f64>,
        reason: DegradedReason,
        rc_steps: usize,
        faults: FaultCounters,
    ) -> Self {
        let n = graph.num_vertices();
        assert_eq!(rows.n(), n, "distance matrix does not match the graph");
        let all: Vec<VertexId> = (0..n as VertexId).collect();
        let intervals = certified_intervals(graph, &all, |v| rows.row(v));
        let bound = intervals
            .iter()
            .zip(&estimate)
            .map(|(&(c_lo, c_hi), &c_est)| (c_est - c_lo).max(c_hi - c_est).max(0.0))
            .collect();
        Self { reason, rc_steps, faults, estimate, bound }
    }

    /// Largest per-vertex bound (0 for an empty graph).
    pub fn max_bound(&self) -> f64 {
        self.bound.iter().copied().fold(0.0, f64::max)
    }

    /// Mean per-vertex bound (0 for an empty graph).
    pub fn mean_bound(&self) -> f64 {
        if self.bound.is_empty() {
            0.0
        } else {
            self.bound.iter().sum::<f64>() / self.bound.len() as f64
        }
    }

    /// True iff the report's bounds cover the given exact closeness values:
    /// `|exact(v) − estimate(v)| ≤ bound(v)` everywhere (with float slack).
    pub fn certifies(&self, exact: &[f64]) -> bool {
        exact.len() == self.estimate.len()
            && exact
                .iter()
                .zip(&self.estimate)
                .zip(&self.bound)
                .all(|((&ex, &est), &b)| (ex - est).abs() <= b + 1e-12)
    }
}

// ----------------------------------------------------------------
// Certified per-vertex closeness intervals
// ----------------------------------------------------------------

/// The certified closeness interval `[c_lo, c_hi]` of each vertex of
/// `vertices`, in order, against its DV row `row(v)`: the one routine behind
/// every published bound and every degraded answer (DESIGN.md §17).
///
/// Nothing is kept between calls. The hop rows of exactly these vertices
/// are walked off `graph` by the multi-source BFS [`bfs_rows`],
/// [`BFS_LANES`] at a time into one `BFS_LANES × n` buffer, and the weight
/// extremes come from one edge scan, so a caller that scores a few rows
/// walks a few rows and nothing n × n is ever held. Works on any storage
/// backend.
///
/// For a vertex `v` with DV row `row` and hop row `hops`, the interval
/// contains the true closeness:
///
/// * every finite DV entry is a genuine path length, hence an **upper**
///   bound on the true distance, and so is `w_max · hops(v,u)` (walk the
///   min-hop path, every edge weighs at most `w_max`) — summing, per
///   reachable vertex, the *smaller* of the two gives an upper bound on
///   `Σ d_true`, i.e. `c_lo = 1/Σ min(row[u], w_max·hops) ≤ c_true`;
/// * `w_min · hops(v,u)` is a **lower** bound on every true distance, so
///   `c_hi = 1/Σ w_min·hops ≥ c_true`.
///
/// `(0, 0)` when `v` reaches nothing (its true closeness is exactly 0 under
/// the reachable-sum convention). Because DV rows only ever min-merge
/// downward, `c_lo` is non-decreasing and `c_hi` is fixed per graph version
/// — the interval width `c_hi − c_lo` is **non-increasing across epochs**
/// on a quiescing run (the anytime guarantee, stated per epoch), and at
/// convergence `min(row, w_max·hops) = row = d_true`, so `c_lo` equals the
/// true closeness exactly.
pub(crate) fn certified_intervals<'r, G: GraphStore>(
    graph: &G,
    vertices: &[VertexId],
    row: impl Fn(VertexId) -> &'r [Dist],
) -> Vec<(f64, f64)> {
    let n = graph.num_vertices();
    let extremes = weight_extremes(graph);
    let mut walked = vec![INF; BFS_LANES.min(vertices.len()) * n];
    let mut out = Vec::with_capacity(vertices.len());
    for batch in vertices.chunks(BFS_LANES) {
        let walked = &mut walked[..batch.len() * n];
        bfs_rows(n, |v| graph.successors(v), batch, walked);
        out.extend(
            batch
                .iter()
                .zip(walked.chunks_exact(n))
                .map(|(&v, hops)| interval(v, hops, row(v), extremes)),
        );
    }
    out
}

/// `(w_min, w_max)` over the graph's edges; `(1, 1)` without any.
fn weight_extremes<G: GraphStore>(graph: &G) -> (u64, u64) {
    let mut w_min = u64::MAX;
    let mut w_max = 1u64;
    for (_, _, w) in edges(graph) {
        w_min = w_min.min(w as u64);
        w_max = w_max.max(w as u64);
    }
    (if w_min == u64::MAX { 1 } else { w_min }, w_max)
}

/// The certified interval of `v` from its hop row `hops` and its DV row
/// `row`, under the weight extremes `(w_min, w_max)`.
fn interval(v: VertexId, hops: &[Dist], row: &[Dist], (w_min, w_max): (u64, u64)) -> (f64, f64) {
    debug_assert_eq!(row.len(), hops.len(), "row {v} does not match the graph");
    let mut upper_sum = 0u64;
    let mut lower_sum = 0u64;
    for (u, (&h, &d)) in hops.iter().zip(row).enumerate() {
        if u as VertexId == v || h == INF {
            continue;
        }
        let cap = w_max * h as u64;
        upper_sum += if d == INF { cap } else { (d as u64).min(cap) };
        lower_sum += w_min * h as u64;
    }
    if upper_sum == 0 {
        return (0.0, 0.0);
    }
    (1.0 / upper_sum as f64, 1.0 / lower_sum as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::{DynamicChange, NewVertex, VertexBatch};
    use crate::engine::{AnytimeEngine, EngineConfig};
    use crate::publish::{BoundsMode, PublishedView};
    use aaa_graph::closeness::closeness_from_row;
    use aaa_graph::generators::{barabasi_albert, WeightModel};
    use aaa_graph::sssp::bfs;
    use aaa_graph::{AdjGraph, Csr};

    #[test]
    fn tracker_records_and_checks_monotonicity() {
        let g = barabasi_albert(30, 2, WeightModel::Unit, 2).unwrap();
        let mut t = QualityTracker::new(&g, 5);
        let exact = t.exact().to_vec();
        // Degenerate estimate, then the exact values: error must drop.
        let zeros = vec![0.0; 30];
        let s1 = t.record(0, &zeros);
        let s2 = t.record(1, &exact);
        assert!(s1.error > s2.error);
        assert!(s2.error < 1e-12);
        assert!((s2.top_k_recall - 1.0).abs() < 1e-12);
        assert!(t.error_is_monotone_nonincreasing());
        assert_eq!(t.samples().len(), 2);
    }

    #[test]
    fn non_monotone_sequences_are_detected() {
        let g = barabasi_albert(20, 2, WeightModel::Unit, 4).unwrap();
        let mut t = QualityTracker::new(&g, 3);
        let exact = t.exact().to_vec();
        t.record(0, &exact);
        t.record(1, &[0.0; 20]);
        assert!(!t.error_is_monotone_nonincreasing());
    }

    #[test]
    #[should_panic(expected = "graph changed")]
    fn rejects_length_mismatch() {
        let g = barabasi_albert(10, 2, WeightModel::Unit, 1).unwrap();
        let mut t = QualityTracker::new(&g, 3);
        t.record(0, &[0.0; 5]);
    }

    /// The degraded report of `rows` over `g` as a driver assembles it: the
    /// estimate read off the rows as they are.
    fn degraded(g: &AdjGraph, rows: &DistMatrix, reason: DegradedReason) -> DegradedReport {
        let estimate = (0..rows.n() as u32).map(|v| closeness_from_row(rows.row(v))).collect();
        DegradedReport::assemble(g, rows, estimate, reason, 0, FaultCounters::default())
    }

    /// Every vertex's interval against its row in `rows`.
    fn intervals(g: &AdjGraph, rows: &DistMatrix) -> Vec<(f64, f64)> {
        let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        certified_intervals(g, &all, |v| rows.row(v))
    }

    /// Rows holding only the IA-grade knowledge (self + direct neighbours)
    /// must still produce bounds that cover the true closeness — and never
    /// wider ones than the formula before the one interval, whose `c_lo` was
    /// `c_est` on a row covering every reachable vertex and 0 otherwise.
    #[test]
    fn degraded_bounds_cover_exact_for_partial_rows() {
        for seed in [1u64, 7, 42] {
            let g =
                barabasi_albert(40, 2, WeightModel::UniformRange { lo: 1, hi: 5 }, seed).unwrap();
            let n = g.num_vertices();
            let exact = closeness_exact(&Csr::from_adj(&g));
            let mut rows = DistMatrix::new(n);
            for v in 0..n as u32 {
                for &(t, w) in g.neighbors(v) {
                    rows.set(v, t, w);
                }
            }
            let report = degraded(&g, &rows, DegradedReason::StepBudgetExhausted);
            assert!(report.certifies(&exact), "seed {seed}: bounds failed to cover exact");
            assert!(report.max_bound() > 0.0, "partial rows must admit real uncertainty");
            assert!(report.mean_bound() <= report.max_bound());
            let mut tighter = 0;
            for (v, &(_, c_hi)) in intervals(&g, &rows).iter().enumerate() {
                let (row, hops) = (rows.row(v as u32), bfs(&g, v as u32));
                let covered = (0..n).all(|u| u == v || (hops[u] == INF) == (row[u] == INF));
                let c_est = report.estimate[v];
                let was = (c_est - if covered { c_est } else { 0.0 }).max(c_hi - c_est).max(0.0);
                let now = report.bound[v];
                assert!(now <= was, "seed {seed} v{v}: {now} > {was}");
                tighter += usize::from(now < was);
            }
            assert!(tighter > 0, "seed {seed}: rows missing a vertex tighten");
        }
    }

    /// Fully converged rows are covered with `c_lo = c_est`: the bound
    /// collapses to `c_hi − c_est` and still certifies.
    #[test]
    fn degraded_bounds_cover_exact_for_converged_rows() {
        let g = barabasi_albert(30, 2, WeightModel::Unit, 9).unwrap();
        let exact = closeness_exact(&Csr::from_adj(&g));
        let rows = aaa_graph::apsp::apsp_dijkstra(&Csr::from_adj(&g));
        let reason = DegradedReason::RetriesExhausted {
            last: ClusterError::RankStalled { rank: 1, superstep: 4 },
        };
        let report = degraded(&g, &rows, reason);
        for (v, (est, ex)) in report.estimate.iter().zip(&exact).enumerate() {
            assert!((est - ex).abs() < 1e-12, "vertex {v}: converged rows must equal exact");
        }
        assert!(report.certifies(&exact));
        assert!(report.reason.to_string().contains("stalled"));
        assert!(DegradedReason::StepBudgetExhausted.to_string().contains("budget"));
    }

    /// The routine walks its hop rows in batches of `BFS_LANES`: across
    /// more than one batch, for every vertex or any subset of them, each
    /// interval is the one its `bfs` row gives, and each degraded bound
    /// is read off it.
    #[test]
    fn intervals_across_walk_batches_are_the_ones_of_single_rows() {
        let g = barabasi_albert(BFS_LANES + 21, 2, WeightModel::UniformRange { lo: 1, hi: 3 }, 5)
            .unwrap();
        let n = g.num_vertices();
        let mut rows = DistMatrix::new(n);
        for v in 0..n as u32 {
            for &(t, w) in g.neighbors(v).iter().step_by(2) {
                rows.set(v, t, w);
            }
        }
        let extremes = weight_extremes(&g);
        let one_row = |v: VertexId| interval(v, &bfs(&g, v), rows.row(v), extremes);
        let report = degraded(&g, &rows, DegradedReason::StepBudgetExhausted);
        for (v, &walked) in intervals(&g, &rows).iter().enumerate() {
            let (lo, hi) = one_row(v as VertexId);
            assert_eq!(walked, (lo, hi), "vertex {v}");
            let c_est = report.estimate[v];
            assert_eq!(report.bound[v], (c_est - lo).max(hi - c_est).max(0.0), "vertex {v}");
        }
        let some: Vec<VertexId> = (0..n as VertexId).filter(|v| v % 3 != 1).collect();
        let walked = certified_intervals(&g, &some, |v| rows.row(v));
        assert!(some.iter().zip(walked).all(|(&v, i)| i == one_row(v)));
        assert!(certified_intervals(&g, &[], |v| rows.row(v)).is_empty());
    }

    /// A row that misses a reachable vertex still has a lower end: on the
    /// unit path 0–1–2, row 0 holding only `row[1] = 1` reads `c_est = 1`
    /// inside `[1/3, 1/3]`, so the bound is 2/3 — not the 1 that a lower
    /// end of 0 gave.
    #[test]
    fn a_row_missing_a_vertex_is_bounded_by_the_interval() {
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        let mut rows = DistMatrix::new(3);
        rows.set(0, 1, 1);
        let report = degraded(&g, &rows, DegradedReason::StepBudgetExhausted);
        assert!((report.bound[0] - 2.0 / 3.0).abs() < 1e-12, "{}", report.bound[0]);
        assert!(report.certifies(&closeness_exact(&Csr::from_adj(&g))));
    }

    /// The certified interval contains the exact closeness at every stage
    /// of row refinement, and tightens monotonically as rows improve.
    #[test]
    fn certified_intervals_cover_exact_and_tighten() {
        for seed in [3u64, 11, 42] {
            let g =
                barabasi_albert(35, 2, WeightModel::UniformRange { lo: 1, hi: 4 }, seed).unwrap();
            let n = g.num_vertices();
            let exact = closeness_exact(&Csr::from_adj(&g));
            let truth = aaa_graph::apsp::apsp_dijkstra(&Csr::from_adj(&g));

            // Stage 1: IA-grade rows (self + direct neighbours only).
            let mut rows = DistMatrix::new(n);
            for v in 0..n as u32 {
                for &(t, w) in g.neighbors(v) {
                    rows.set(v, t, w);
                }
            }
            // Stage 2: converged rows — the interval must only tighten, and
            // the lower end must hit the exact value.
            let (partial, converged) = (intervals(&g, &rows), intervals(&g, &truth));
            for (v, (&(lo, hi), &(lo2, hi2))) in partial.iter().zip(&converged).enumerate() {
                let ex = exact[v];
                assert!(lo <= ex + 1e-12 && ex <= hi + 1e-12, "seed {seed} v{v}: {lo}..{hi}");
                assert!(lo2 + 1e-12 >= lo && hi2 <= hi + 1e-12, "interval widened");
                assert!((lo2 - ex).abs() < 1e-12, "converged c_lo must equal exact");
                assert!(ex <= hi2 + 1e-12);
            }
        }
    }

    /// One burst of changes as a stream submits it, each valid against `g`
    /// as the burst has left it so far, and applied to `g`: vertex batches
    /// with edges among themselves, edge additions, removals (on trees:
    /// every one disconnects), reweights, vertex removals, an edge there and
    /// back.
    fn burst(g: &mut AdjGraph, ops: &[(u8, u32, u32, u32)]) -> Vec<DynamicChange> {
        let mut changes = Vec::new();
        for &(code, x, y, w) in ops {
            let n = g.num_vertices() as u32;
            let (u, v, w) = (x % n, y % n, 1 + w % 4);
            // The `x`-th edge there is, so removals and reweights land.
            let picked = g.edges().nth(x as usize % g.num_edges().max(1));
            match code % 7 {
                // A batch of 1–3 vertices with 0–3 edges each, targets among
                // the old vertices and the batch itself.
                0 => {
                    let k = 1 + y % 3;
                    g.add_vertices(k as usize);
                    let vertices = (0..k)
                        .map(|i| {
                            let mut edges = Vec::new();
                            for e in 0..(x >> (2 * i)) % 4 {
                                let t = (y / 3 + 7 * e + i) % (n + k);
                                if t != n + i && !g.has_edge(n + i, t) {
                                    g.add_edge(n + i, t, w).unwrap();
                                    edges.push((t, w));
                                }
                            }
                            NewVertex { edges }
                        })
                        .collect();
                    changes.push(DynamicChange::AddVertices(VertexBatch { vertices }));
                }
                1 if u != v && !g.has_edge(u, v) => {
                    g.add_edge(u, v, w).unwrap();
                    changes.push(DynamicChange::AddEdge { u, v, w });
                }
                2 => {
                    if let Some((a, b, _)) = picked {
                        g.remove_edge(a, b).unwrap();
                        changes.push(DynamicChange::RemoveEdge { u: a, v: b });
                    }
                }
                3 => {
                    if let Some((a, b, _)) = picked.filter(|e| e.2 != w) {
                        g.set_weight(a, b, w).unwrap();
                        changes.push(DynamicChange::SetWeight { u: a, v: b, w });
                    }
                }
                4 => {
                    for (t, _) in g.neighbors(u).to_vec() {
                        g.remove_edge(u, t).unwrap();
                    }
                    changes.push(DynamicChange::RemoveVertices(vec![u]));
                }
                // One edge there and back inside the burst: removed and
                // re-added, or added and removed.
                5 => {
                    if let Some((a, b, _)) = picked {
                        g.remove_edge(a, b).unwrap();
                        g.add_edge(a, b, w).unwrap();
                        changes.push(DynamicChange::RemoveEdge { u: a, v: b });
                        changes.push(DynamicChange::AddEdge { u: a, v: b, w });
                    }
                }
                6 if u != v && !g.has_edge(u, v) => {
                    changes.push(DynamicChange::AddEdge { u, v, w });
                    changes.push(DynamicChange::RemoveEdge { u, v });
                }
                _ => {}
            }
        }
        changes
    }

    /// A certified engine and its forced-full twin over `g`.
    fn certified_pair(g: &AdjGraph) -> (AnytimeEngine, AnytimeEngine) {
        let mut config = EngineConfig::deterministic(3);
        config.publish_bounds = BoundsMode::Certified;
        let thin = AnytimeEngine::new(g.clone(), config.clone()).unwrap();
        let mut full = AnytimeEngine::new(g.clone(), config).unwrap();
        full.set_force_full_publish(true);
        (thin, full)
    }

    fn bits(xs: Vec<f64>) -> Vec<u64> {
        xs.into_iter().map(f64::to_bits).collect()
    }

    /// The ids whose published `(closeness, bound)` bits differ between
    /// `before` and `after`, with every id `before` lacks.
    fn moved(before: &PublishedView, after: &PublishedView) -> Vec<VertexId> {
        let pair = |view: &PublishedView, v| {
            (view.point(v).map(f64::to_bits), view.error_bound(v).map(f64::to_bits))
        };
        (0..after.num_vertices() as VertexId)
            .filter(|&v| pair(before, v) != pair(after, v))
            .collect()
    }

    /// Holds the thin engine's last epoch to the twin's, bit for bit, and
    /// its delta to the rows whose bits moved since `before`.
    fn assert_thin_and_exact(thin: &AnytimeEngine, full: &AnytimeEngine, before: &PublishedView) {
        let (a, b) = (thin.published(), full.published());
        assert_eq!(bits(a.closeness()), bits(b.closeness()), "closeness");
        assert_eq!(bits(a.bounds()), bits(b.bounds()), "bounds");
        let delta = thin.last_view_delta().expect("an epoch was published");
        assert!(!delta.full, "a drain or an RC step publishes a thin epoch");
        let ids = |es: &[(VertexId, f64)]| es.iter().map(|e| e.0).collect::<Vec<_>>();
        let moved = moved(before, &b);
        assert_eq!(ids(&delta.entries), moved, "re-stated rows");
        assert_eq!(ids(&delta.bounds), moved, "re-stated bounds");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(320))]

        /// After any burst, submitted and drained under `Certified` — and
        /// at the RC step after it — the delta engine's view equals the
        /// forced-full twin's bit for bit, and the epoch re-states exactly
        /// the rows whose published bits moved (every new id among them):
        /// no matrix, no diff, no full epoch for a moved weight extreme.
        #[test]
        fn a_drained_burst_restates_exactly_the_rows_whose_bits_moved(
            n in 4usize..26,
            parents in proptest::collection::vec((0u32..1000, 1u32..5), 25),
            chords in proptest::collection::vec((0u32..1000, 0u32..1000, 1u32..5), 0..12),
            tree in 0u8..3,
            steps in 0usize..3,
            ops in proptest::collection::vec((0u8..7, 0u32..1000, 0u32..1000, 0u32..8), 1..10),
        ) {
            // A random tree; two times in three with chords.
            let mut g = AdjGraph::with_vertices(n);
            for v in 1..n as u32 {
                let (p, w) = parents[v as usize - 1];
                g.add_edge(v, p % v, w).unwrap();
            }
            for &(a, b, w) in chords.iter().filter(|_| tree != 0) {
                let (a, b) = (a % n as u32, b % n as u32);
                if a != b && !g.has_edge(a, b) {
                    g.add_edge(a, b, w).unwrap();
                }
            }
            let (mut thin, mut full) = certified_pair(&g);
            for _ in 0..steps {
                thin.rc_step();
                full.rc_step();
            }
            let changes = burst(&mut g, &ops);
            for change in changes {
                thin.submit(change.clone()).unwrap();
                full.submit(change).unwrap();
            }
            let before = thin.published();
            if thin.drain_changes().unwrap() > 0 {
                full.drain_changes().unwrap();
                assert_thin_and_exact(&thin, &full, &before);
            }
            let edges = |g: &AdjGraph| g.edges().collect::<Vec<_>>();
            proptest::prop_assert_eq!(edges(thin.graph()), edges(&g));
            let before = thin.published();
            thin.rc_step();
            full.rc_step();
            assert_thin_and_exact(&thin, &full, &before);
        }
    }

    /// A reweight past the heaviest edge moves `w_max`, and with it the
    /// lower end of every interval whose row holds a cell above its cap
    /// `w_max · hops`: a thin epoch of exactly those rows, bit-identical to
    /// the forced-full twin's. The reweight comes right after IA, whose
    /// landmark-seeded rows hold such cells; one RC step later, on this
    /// graph, none is left.
    #[test]
    fn a_moved_weight_extreme_publishes_a_thin_epoch() {
        let g = barabasi_albert(40, 2, WeightModel::UniformRange { lo: 1, hi: 3 }, 4).unwrap();
        let (mut thin, mut full) = certified_pair(&g);
        let (u, v, _) = g.edges().next().unwrap();
        let before = thin.published();
        for e in [&mut thin, &mut full] {
            e.submit(DynamicChange::SetWeight { u, v, w: 9 }).unwrap();
            assert_eq!(e.drain_changes().unwrap(), 1);
        }
        assert_thin_and_exact(&thin, &full, &before);
        assert!(thin.last_view_delta().unwrap().rows() > 0, "the extreme moved some bound");
    }

    #[test]
    fn certified_interval_is_zero_for_isolated_vertices() {
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 1, 2).unwrap();
        let rows = DistMatrix::new(3);
        assert_eq!(certified_intervals(&g, &[2], |v| rows.row(v)), [(0.0, 0.0)]);
    }

    #[test]
    fn isolated_vertices_get_zero_bound() {
        // 0–1 connected by an edge; 2 isolated.
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 1, 2).unwrap();
        let mut rows = DistMatrix::new(3);
        rows.set(0, 1, 2);
        rows.set(1, 0, 2);
        let report = degraded(&g, &rows, DegradedReason::StepBudgetExhausted);
        let bound = &report.bound;
        assert_eq!(bound[2], 0.0, "an isolated vertex's closeness 0 is exact");
        // 0 and 1 have fully-covered rows: the interval collapses to the
        // estimate, because the only reachable vertex is the direct
        // neighbour at the minimum weight.
        assert!(bound[0].abs() < 1e-12 && bound[1].abs() < 1e-12);
        assert!(report.certifies(&closeness_exact(&Csr::from_adj(&g))));
    }
}
