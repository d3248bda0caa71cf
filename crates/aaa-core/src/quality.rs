//! Anytime-quality instrumentation and the certified quality label.
//!
//! The anytime property (§III) promises solutions whose quality improves
//! monotonically (non-decreasing) with computation. [`QualityTracker`]
//! measures that: it compares the engine's partial closeness values against
//! the exact values for the current graph and records the error per RC step.
//!
//! Without an exact reference, one interval says how good an answer is:
//! [`CertifiedBoundsCache::interval`], read off a hop matrix that is a
//! function of the graph. The publish layer stamps every epoch with it, and
//! the degraded answer of either driver bounds every vertex with it
//! (`DegradedReport::assemble`).

use aaa_graph::apsp::DistMatrix;
use aaa_graph::closeness::{mean_relative_error, top_k};
use aaa_graph::sssp::{bfs_rows, BFS_LANES};
use aaa_graph::{Dist, VertexId, INF};
use aaa_runtime::{ClusterError, FaultCounters};
use aaa_store::{algo, GraphStore};
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
        let exact = algo::closeness_exact(graph);
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
    /// The `max_rc_steps` safety bound was hit before quiescence.
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
    /// interval `[c_lo, c_hi]` of its row in `rows`
    /// ([`CertifiedBoundsCache::interval`]): `bound(v) = max(c_est − c_lo,
    /// c_hi − c_est, 0)`, which covers the exact value wherever in the
    /// interval it lies. The hop rows are walked off `graph` itself,
    /// [`BFS_LANES`] at a time, so no n×n matrix is held next to `rows`.
    /// Both drivers assemble their degraded reports here and nowhere else.
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
        let extremes = weight_extremes(graph);
        let sources: Vec<VertexId> = (0..n as VertexId).collect();
        let mut walked = vec![INF; BFS_LANES.min(n) * n];
        let mut bound = Vec::with_capacity(n);
        for batch in sources.chunks(BFS_LANES) {
            let walked = &mut walked[..batch.len() * n];
            bfs_rows(n, |v| graph.successors(v), batch, walked);
            bound.extend(batch.iter().zip(walked.chunks_exact(n)).map(|(&v, hops)| {
                let (c_lo, c_hi) = interval(v, hops, rows.row(v), extremes);
                let c_est = estimate[v as usize];
                (c_est - c_lo).max(c_hi - c_est).max(0.0)
            }));
        }
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

/// The hop matrix behind certified closeness intervals: a function of the
/// graph, built by the multi-source walk.
///
/// The publish layer stamps every epoch with per-vertex error bounds; doing
/// `n` BFS traversals per epoch would dwarf the RC step itself, so the hop
/// counts (and the weight extremes) are computed here once per graph
/// version: for the first epoch, and again at a publish barrier where an
/// edge moved or the vertex count changed. `moved_since` says which rows
/// a build moved against the one before it (DESIGN.md §17). A degraded
/// report reads the same intervals.
///
/// For a vertex `v` with current DV row `row`, [`interval`] returns a
/// certified interval `[c_lo, c_hi]` containing the true closeness:
///
/// * every finite DV entry is a genuine path length, hence an **upper**
///   bound on the true distance, and so is `w_max · hops(v,u)` (walk the
///   min-hop path, every edge weighs at most `w_max`) — summing, per
///   reachable vertex, the *smaller* of the two gives an upper bound on
///   `Σ d_true`, i.e. `c_lo = 1/Σ min(row[u], w_max·hops) ≤ c_true`;
/// * `w_min · hops(v,u)` is a **lower** bound on every true distance, so
///   `c_hi = 1/Σ w_min·hops ≥ c_true`.
///
/// Because DV rows only ever min-merge downward, `c_lo` is non-decreasing
/// and `c_hi` is fixed per graph version — the interval width `c_hi − c_lo`
/// is **non-increasing across epochs** on a quiescing run (the anytime
/// guarantee, stated per epoch), and at convergence `min(row, w_max·hops) =
/// row = d_true`, so `c_lo` equals the true closeness exactly.
///
/// [`interval`]: CertifiedBoundsCache::interval
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedBoundsCache {
    n: usize,
    w_min: u64,
    w_max: u64,
    /// Flat n×n matrix of unit-weight hop counts (`INF` unreachable);
    /// symmetric, the graph is undirected.
    hops: Vec<Dist>,
}

/// `(w_min, w_max)` over the graph's edges; `(1, 1)` without any.
fn weight_extremes<G: GraphStore>(graph: &G) -> (u64, u64) {
    let mut w_min = u64::MAX;
    let mut w_max = 1u64;
    for (_, _, w) in aaa_store::edges(graph) {
        w_min = w_min.min(w as u64);
        w_max = w_max.max(w as u64);
    }
    (if w_min == u64::MAX { 1 } else { w_min }, w_max)
}

/// The certified interval of `v` from its hop row `hops` and its DV row
/// `row`, under the weight extremes `(w_min, w_max)`: the body of
/// [`CertifiedBoundsCache::interval`], which the degraded report applies to
/// hop rows it walks itself.
fn interval(v: VertexId, hops: &[Dist], row: &[Dist], (w_min, w_max): (u64, u64)) -> (f64, f64) {
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

impl CertifiedBoundsCache {
    /// Builds the cache for the current graph: all n hop rows, walked
    /// `BFS_LANES` at a time by the multi-source BFS [`bfs_rows`]. Works on
    /// any storage backend.
    pub fn new<G: GraphStore>(graph: &G) -> Self {
        let n = graph.num_vertices();
        let (w_min, w_max) = weight_extremes(graph);
        let mut hops = vec![INF; n * n];
        let all: Vec<VertexId> = (0..n as VertexId).collect();
        bfs_rows(n, |v| graph.successors(v), &all, &mut hops);
        Self { n, w_min, w_max, hops }
    }

    /// What moved from `old`, the cache of an earlier graph with the same
    /// vertices or fewer, to `self`: the rows whose interval moves under an
    /// unchanged DV row — each old row whose hop row differs (padded with
    /// `INF` to the new width: a new vertex within reach is a new term) and
    /// every new id, sorted — and whether a weight extreme moved, which
    /// moves every interval.
    pub(crate) fn moved_since(&self, old: &Self) -> (Vec<VertexId>, bool) {
        let (n0, n) = (old.n, self.n);
        assert!(n0 <= n, "a bounds cache is compared with one of the same vertices or fewer");
        let rows = (0..n)
            .filter(|&x| {
                let now = &self.hops[x * n..][..n];
                x >= n0
                    || now[..n0] != old.hops[x * n0..][..n0]
                    || now[n0..].iter().any(|&h| h != INF)
            })
            .map(|x| x as VertexId)
            .collect();
        (rows, (old.w_min, old.w_max) != (self.w_min, self.w_max))
    }

    /// Number of vertices the cache was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The certified closeness interval `[c_lo, c_hi]` for vertex `v` given
    /// its current DV row. `(0, 0)` when `v` reaches nothing (its true
    /// closeness is exactly 0 under the reachable-sum convention).
    pub fn interval(&self, v: u32, row: &[Dist]) -> (f64, f64) {
        assert_eq!(row.len(), self.n, "row does not match the cached graph");
        interval(v, &self.hops[v as usize * self.n..][..self.n], row, (self.w_min, self.w_max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::{BoundsMode, Publisher};
    use aaa_graph::closeness::{closeness_exact, closeness_from_row};
    use aaa_graph::generators::{barabasi_albert, WeightModel};
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
            let cache = CertifiedBoundsCache::new(&g);
            let mut tighter = 0;
            for v in 0..n {
                let (row, hops) = (rows.row(v as u32), &cache.hops[v * n..][..n]);
                let covered = (0..n).all(|u| u == v || (hops[u] == INF) == (row[u] == INF));
                let (c_est, c_hi) = (report.estimate[v], cache.interval(v as u32, row).1);
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

    /// The report walks its hop rows in batches of `BFS_LANES`; across more
    /// than one batch every bound is the one the cache's interval gives.
    #[test]
    fn degraded_bounds_are_the_cache_intervals_across_walk_batches() {
        let g = barabasi_albert(BFS_LANES + 21, 2, WeightModel::UniformRange { lo: 1, hi: 3 }, 5)
            .unwrap();
        let n = g.num_vertices();
        let mut rows = DistMatrix::new(n);
        for v in 0..n as u32 {
            for &(t, w) in g.neighbors(v).iter().step_by(2) {
                rows.set(v, t, w);
            }
        }
        let report = degraded(&g, &rows, DegradedReason::StepBudgetExhausted);
        let cache = CertifiedBoundsCache::new(&g);
        for v in 0..n {
            let (lo, hi) = cache.interval(v as u32, rows.row(v as u32));
            let c_est = report.estimate[v];
            assert_eq!(report.bound[v], (c_est - lo).max(hi - c_est).max(0.0), "vertex {v}");
        }
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
            let cache = CertifiedBoundsCache::new(&g);
            let truth = aaa_graph::apsp::apsp_dijkstra(&Csr::from_adj(&g));

            // Stage 1: IA-grade rows (self + direct neighbours only).
            let mut rows = DistMatrix::new(n);
            for v in 0..n as u32 {
                for &(t, w) in g.neighbors(v) {
                    rows.set(v, t, w);
                }
            }
            for v in 0..n as u32 {
                let (lo, hi) = cache.interval(v, rows.row(v));
                let ex = exact[v as usize];
                assert!(lo <= ex + 1e-12 && ex <= hi + 1e-12, "seed {seed} v{v}: {lo}..{hi}");
                // Stage 2: converged rows — interval must only tighten, and
                // the lower end must hit the exact value.
                let (lo2, hi2) = cache.interval(v, truth.row(v));
                assert!(lo2 + 1e-12 >= lo && hi2 <= hi + 1e-12, "interval widened");
                assert!((lo2 - ex).abs() < 1e-12, "converged c_lo must equal exact");
                assert!(ex <= hi2 + 1e-12);
            }
        }
    }

    /// One burst of changes applied to `g` the way the engine's `exec_*`
    /// apply them, noting every edge made or unmade.
    fn apply_burst(g: &mut AdjGraph, ops: &[(u8, u32, u32, u32)]) -> Vec<(u32, u32, u32)> {
        let mut touched = Vec::new();
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
                    for i in 0..k {
                        for e in 0..(x >> (2 * i)) % 4 {
                            let t = (y / 3 + 7 * e + i) % (n + k);
                            if t != n + i && !g.has_edge(n + i, t) {
                                g.add_edge(n + i, t, w).unwrap();
                                touched.push((n + i, t, w));
                            }
                        }
                    }
                }
                1 if u != v && !g.has_edge(u, v) => {
                    g.add_edge(u, v, w).unwrap();
                    touched.push((u, v, w));
                }
                2 => {
                    if let Some((a, b, old)) = picked {
                        g.remove_edge(a, b).unwrap();
                        touched.push((a, b, old));
                    }
                }
                3 => {
                    if let Some((a, b, old)) = picked.filter(|e| e.2 != w) {
                        g.set_weight(a, b, w).unwrap();
                        touched.extend([(a, b, old), (a, b, w)]);
                    }
                }
                4 => {
                    for (t, old) in g.neighbors(u).to_vec() {
                        g.remove_edge(u, t).unwrap();
                        touched.push((u, t, old));
                    }
                }
                // One edge there and back inside the burst: removed and
                // re-added, or added and removed.
                5 => {
                    if let Some((a, b, old)) = picked {
                        g.remove_edge(a, b).unwrap();
                        g.add_edge(a, b, w).unwrap();
                        touched.extend([(a, b, old), (a, b, w)]);
                    }
                }
                6 if u != v && !g.has_edge(u, v) => {
                    g.add_edge(u, v, w).unwrap();
                    g.remove_edge(u, v).unwrap();
                    touched.extend([(u, v, w), (u, v, w)]);
                }
                _ => {}
            }
        }
        touched
    }

    /// The hop matrix of `g` built one `bfs_hops` row at a time — the
    /// reference the walk is held to.
    fn hops_by_rows(g: &AdjGraph) -> Vec<Dist> {
        (0..g.num_vertices() as VertexId).flat_map(|v| algo::bfs_hops(g, v)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(320))]

        /// After any burst — vertex batches with edges among themselves,
        /// edge additions, removals (on trees: every one disconnects),
        /// reweights, vertex removals, an edge there and back — the cache a
        /// publish barrier refreshes is the one `new` builds, the rows it
        /// reports are exactly the rows that differ from what they were,
        /// plus the new ids, and the full path is forced exactly when a
        /// weight extreme moved.
        #[test]
        fn a_refreshed_cache_equals_a_rebuilt_one(
            n in 2usize..26,
            parents in proptest::collection::vec((0u32..1000, 1u32..5), 25),
            chords in proptest::collection::vec((0u32..1000, 0u32..1000, 1u32..5), 0..12),
            tree in 0u8..3,
            ops in proptest::collection::vec((0u8..7, 0u32..1000, 0u32..1000, 0u32..8), 1..10),
        ) {
            // A random forest-free tree; two times in three with chords.
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
            let mut p = Publisher::new(BoundsMode::Certified);
            p.cache_for(&g, false);
            p.publish(0, 0, false, vec![0.0; n], vec![0.0; n], Vec::new());
            let before = p.cache().unwrap().clone();
            let touched = apply_burst(&mut g, &ops);
            let rows = p.cache_for(&g, !touched.is_empty());
            let rebuilt = CertifiedBoundsCache::new(&g);
            proptest::prop_assert!(p.cache() == Some(&rebuilt), "refresh differs from rebuild");
            proptest::prop_assert!(rebuilt.hops == hops_by_rows(&g), "walk differs from bfs_hops");

            let (n0, n1) = (before.n, rebuilt.n);
            let expected: Vec<VertexId> = (0..n1)
                .filter(|&x| {
                    x >= n0 || {
                        let mut was = before.hops[x * n0..][..n0].to_vec();
                        was.resize(n1, INF);
                        was != rebuilt.hops[x * n1..][..n1]
                    }
                })
                .map(|x| x as VertexId)
                .collect();
            proptest::prop_assert_eq!(&rows, &expected);
            proptest::prop_assert_eq!(
                p.wants_full(),
                (before.w_min, before.w_max) != (rebuilt.w_min, rebuilt.w_max)
            );
        }
    }

    #[test]
    fn certified_interval_is_zero_for_isolated_vertices() {
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 1, 2).unwrap();
        let cache = CertifiedBoundsCache::new(&g);
        let rows = DistMatrix::new(3);
        assert_eq!(cache.interval(2, rows.row(2)), (0.0, 0.0));
        assert_eq!(cache.n(), 3);
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
