//! Pluggable centrality metrics over the anytime DV core.
//!
//! The paper's anytime-anywhere skeleton (DD → IA → RC over min-merge
//! distance rows) is metric-agnostic: any statistic derivable from the
//! per-source distance rows can ride the same incremental machinery. This
//! module is the seam that makes that true in code. A [`Metric`] consumes
//! the rows the engine already maintains and produces a per-vertex score
//! column; the engine publishes one epoch carrying every active metric's
//! column, and `aaa-serve` exposes them behind a [`MetricKind`] selector.
//!
//! Closeness is the *primary* column: always present, a pure function of
//! one row (`aaa_graph::closeness::closeness_from_row`, which the publish
//! barrier calls on each changed row), and carrying the certified
//! `c ∈ [c_lo, c_hi]` interval bounds. It keeps no state, so it is no
//! [`Metric`]. The one stateful metric is:
//!
//! * [`IncBetweenness`] — incremental betweenness per Kourtellis et al.
//!   (*Scalable Online Betweenness Centrality in Evolving Graphs*): a
//!   Brandes-style dependency vector is cached per source and recomputed
//!   only for the sources a change touched — those whose row moved in the
//!   epoch, and those under whose row an edge made or unmade since the
//!   last epoch is tight (`row[u] + w == row[v]` or the mirror): the
//!   kernel reads nothing of the edge set but which pairs are tight under
//!   the row it is given, so any other source's vector is bit for bit
//!   what recomputing it would return (DESIGN.md §15). The touched sources
//!   go through the kernel eight at a time, grouped by locality; every
//!   lane is bit for bit the one-source pass, so grouping moves no bit.
//!   The published column is re-summed fresh in source order so that at
//!   convergence it is **bit-identical** to the deterministic exact oracle
//!   (`aaa_graph::centrality::betweenness_exact_det`).

use aaa_graph::centrality::{bfs_ranks, dependencies_from_rows, DependencyScratch, LANES};
use aaa_graph::{AdjGraph, Dist, VertexId};
use std::fmt;

/// Identifies one maintained centrality metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricKind {
    /// Harmonic-free classic closeness from DV rows (the primary metric;
    /// every view carries it).
    Closeness,
    /// Incremental Brandes betweenness maintained from the same rows.
    Betweenness,
}

impl MetricKind {
    /// Every kind, in wire-id order.
    pub const ALL: [MetricKind; 2] = [MetricKind::Closeness, MetricKind::Betweenness];

    /// Stable identifier used on the checkpoint and view-delta wire.
    pub const fn wire_id(self) -> u8 {
        match self {
            MetricKind::Closeness => 0,
            MetricKind::Betweenness => 1,
        }
    }

    /// Inverse of [`MetricKind::wire_id`].
    pub const fn from_wire_id(id: u8) -> Option<MetricKind> {
        match id {
            0 => Some(MetricKind::Closeness),
            1 => Some(MetricKind::Betweenness),
            _ => None,
        }
    }

    /// Human-readable name (also the CLI spelling for `--metrics`).
    pub const fn name(self) -> &'static str {
        match self {
            MetricKind::Closeness => "closeness",
            MetricKind::Betweenness => "betweenness",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MetricKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "closeness" => Ok(MetricKind::Closeness),
            "betweenness" => Ok(MetricKind::Betweenness),
            other => Err(format!("unknown metric '{other}' (closeness|betweenness)")),
        }
    }
}

/// Compact copyable set of [`MetricKind`]s (bit per wire id). Lets
/// `EpochInfo` and view metadata stay `Copy` while reporting which
/// columns a view carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct MetricMask(u8);

impl MetricMask {
    /// The empty set.
    pub const EMPTY: MetricMask = MetricMask(0);

    /// Set containing exactly `kind`.
    pub const fn only(kind: MetricKind) -> MetricMask {
        MetricMask(1 << kind.wire_id())
    }

    /// This set plus `kind`.
    pub const fn with(self, kind: MetricKind) -> MetricMask {
        MetricMask(self.0 | (1 << kind.wire_id()))
    }

    /// Membership test.
    pub const fn contains(self, kind: MetricKind) -> bool {
        self.0 & (1 << kind.wire_id()) != 0
    }

    /// Number of kinds present.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no kind is present.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Kinds present, in wire-id order.
    pub fn kinds(self) -> impl Iterator<Item = MetricKind> {
        MetricKind::ALL.into_iter().filter(move |k| self.contains(*k))
    }
}

impl fmt::Display for MetricMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for k in self.kinds() {
            if !first {
                f.write_str("+")?;
            }
            first = false;
            f.write_str(k.name())?;
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// Work counters one metric accumulates across publish epochs; surfaced
/// as the report's `metrics` section (`AnytimeEngine::report`) so the perf
/// gate can pin the incremental win (sources recomputed ≪ n × epochs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricTally {
    /// Publish epochs in which the metric's `update` hook ran.
    pub epochs: u64,
    /// Per-source dependency recomputations performed (the unit of
    /// incremental work; a full rescan costs `n` of these per epoch).
    pub sources_recomputed: u64,
    /// Batched kernel calls those recomputations took, up to
    /// `aaa_graph::centrality::LANES` sources each:
    /// `sources_recomputed / (kernel_batches × LANES)` is the share of
    /// lanes that did useful work.
    pub kernel_batches: u64,
    /// Epochs that had to rebuild from scratch (no state yet, or a rank
    /// rewound by recovery) — not what a drained change costs.
    pub full_recomputes: u64,
    /// Score entries whose bits changed across all epochs.
    pub changed_entries: u64,
}

/// A maintained per-vertex centrality column over the engine's DV rows.
///
/// Lifecycle per publish epoch: at the barrier the engine gathers every
/// source a change touched — the epoch-dirty rows, and the rows under
/// which an edge changed since the last epoch is tight: a structural
/// change can reshape a shortest-path DAG without moving any distance, so
/// row-dirty tracking alone is not a sound change signal for
/// path-counting metrics, and the tight test is what closes the gap —
/// (all rows when [`Metric::wants_all_rows`] demands it), calls
/// [`Metric::update`], and publishes the returned changed entries (or the
/// [`Metric::full_column`] on a full epoch). [`Metric::invalidate`] fires
/// on rewinds only (`recover_rank` putting a rank back on snapshot rows);
/// a drained change never voids the metric.
pub trait Metric: Send {
    /// Which column this metric maintains.
    fn kind(&self) -> MetricKind;

    /// Rows were rewound behind the change tracking's back: cached state
    /// derived from them is void. (A change to the graph is *not* this —
    /// the sources it touched arrive through [`Metric::update`].)
    fn invalidate(&mut self);

    /// True when the next [`Metric::update`] needs every row, not just
    /// the epoch-dirty ones (e.g. rebuilding after [`Metric::invalidate`]).
    fn wants_all_rows(&self) -> bool;

    /// Consume this epoch's touched `(vertex, row)` pairs — every source
    /// whose row moved or under whose row a changed edge is tight, sorted
    /// by id; all `n` rows when [`Metric::wants_all_rows`] was true —
    /// against the current adjacency, and return the score entries whose
    /// bits changed, sorted by vertex id.
    fn update(
        &mut self,
        n: usize,
        rows: &[(VertexId, Vec<Dist>)],
        adj: &AdjGraph,
    ) -> Vec<(VertexId, f64)>;

    /// The full maintained column (length `n`), if the metric keeps one;
    /// used by full publish epochs.
    fn full_column(&self, n: usize) -> Option<Vec<f64>>;

    /// Work counters accumulated so far.
    fn tally(&self) -> MetricTally;
}

/// Incremental betweenness: per-source Brandes dependency vectors cached
/// and recomputed only for the sources [`Metric::update`] is handed —
/// ordered by their BFS rank in the current graph and cut into batches of
/// `LANES` for `dependencies_from_rows`, each vector written back in place.
///
/// Bit-identity contract: the published column is always a *fresh* sum of
/// the cached per-source vectors in increasing source order, halved —
/// never a float subtract-then-add patch — which is term-for-term the
/// computation `aaa_graph::centrality::betweenness_from_rows` performs.
/// At convergence (all rows exact, no pending invalidation) the column
/// therefore equals `aaa_graph::centrality::betweenness_exact_det`
/// **exactly**, not just approximately.
#[derive(Debug, Clone, Default)]
pub struct IncBetweenness {
    /// Per-source dependency vector (unhalved δ). A vector may be shorter
    /// than the current `n` when the graph grew since it was computed;
    /// missing entries are implicitly `+0.0`, which is bit-safe to skip in
    /// the sum. A source that reaches a new vertex has a moved row and is
    /// recomputed; one in another component keeps its shorter vector.
    deps: Vec<Vec<f64>>,
    /// The currently-published column (halved), for bit-diffing deltas.
    totals: Vec<f64>,
    /// Set by [`Metric::invalidate`]; cleared after the next full rebuild.
    dirty_all: bool,
    tally: MetricTally,
    fresh: bool,
    /// The kernel's buffers, kept across batches and epochs.
    scratch: DependencyScratch,
}

impl IncBetweenness {
    /// A metric with no cached state; the first update rebuilds fully.
    pub fn new() -> Self {
        Self { fresh: true, ..Self::default() }
    }
}

impl Metric for IncBetweenness {
    fn kind(&self) -> MetricKind {
        MetricKind::Betweenness
    }

    fn invalidate(&mut self) {
        self.dirty_all = true;
    }

    fn wants_all_rows(&self) -> bool {
        self.dirty_all || self.fresh
    }

    fn update(
        &mut self,
        n: usize,
        rows: &[(VertexId, Vec<Dist>)],
        adj: &AdjGraph,
    ) -> Vec<(VertexId, f64)> {
        self.tally.epochs += 1;
        if self.dirty_all || self.fresh {
            self.tally.full_recomputes += 1;
            self.deps.clear();
            self.deps.resize(n, Vec::new());
        } else if self.deps.len() < n {
            self.deps.resize(n, Vec::new());
        }
        // Sources close in the graph share most of their rows' cells, so a
        // batch of them walks a short union order; which sources share a
        // batch changes no bit.
        let succ = |u: VertexId| adj.neighbors(u).iter().copied();
        let rank = bfs_ranks(adj.num_vertices(), succ);
        let mut by_rank: Vec<&(VertexId, Vec<Dist>)> = rows.iter().collect();
        by_rank.sort_unstable_by_key(|(v, _)| rank[*v as usize]);
        for batch in by_rank.chunks(LANES) {
            let sources: Vec<VertexId> = batch.iter().map(|(v, _)| *v).collect();
            let lanes: Vec<&[Dist]> = batch.iter().map(|(_, row)| row.as_slice()).collect();
            let mut out: Vec<Vec<f64>> =
                sources.iter().map(|&v| std::mem::take(&mut self.deps[v as usize])).collect();
            dependencies_from_rows(&sources, &lanes, succ, &mut self.scratch, &mut out);
            for (&v, dep) in sources.iter().zip(out) {
                self.deps[v as usize] = dep;
            }
            self.tally.kernel_batches += 1;
        }
        self.tally.sources_recomputed += rows.len() as u64;
        self.dirty_all = false;
        self.fresh = false;

        // Fresh in-source-order sum then halve: term-for-term the oracle's
        // summation, so converged state is bit-equal to it.
        let mut totals = vec![0.0f64; n];
        for dep in &self.deps {
            for (a, d) in totals.iter_mut().zip(dep) {
                *a += d;
            }
        }
        totals.iter_mut().for_each(|x| *x /= 2.0);

        let mut out = Vec::new();
        for (v, &new) in totals.iter().enumerate() {
            let old = self.totals.get(v).map(|o| o.to_bits());
            if old != Some(new.to_bits()) {
                out.push((v as VertexId, new));
            }
        }
        self.tally.changed_entries += out.len() as u64;
        self.totals = totals;
        out
    }

    fn full_column(&self, n: usize) -> Option<Vec<f64>> {
        let mut col = self.totals.clone();
        col.resize(n, 0.0);
        Some(col)
    }

    fn tally(&self) -> MetricTally {
        self.tally
    }
}

/// The maintained-state implementation of one kind; `None` for
/// closeness, which is scored from each row and keeps no state.
pub fn new_metric(kind: MetricKind) -> Option<Box<dyn Metric>> {
    match kind {
        MetricKind::Closeness => None,
        MetricKind::Betweenness => Some(Box::new(IncBetweenness::new())),
    }
}

/// The engine's active metric set: the configured extras beside the
/// always-on closeness column, each a stateful [`Metric`].
pub struct MetricSet {
    extras: Vec<Box<dyn Metric>>,
}

impl fmt::Debug for MetricSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricSet").field("mask", &self.mask()).finish()
    }
}

impl MetricSet {
    /// Builds the set for the configured kinds. Closeness is implicit
    /// (always the primary); duplicates are ignored; extras are ordered by
    /// wire id so every layer agrees on column order.
    pub fn from_kinds(kinds: &[MetricKind]) -> Self {
        let mut wanted = kinds.to_vec();
        wanted.sort_unstable_by_key(|k| k.wire_id());
        wanted.dedup();
        Self { extras: wanted.into_iter().filter_map(new_metric).collect() }
    }

    /// The configured extra metrics, in wire-id order.
    pub fn extras(&self) -> &[Box<dyn Metric>] {
        &self.extras
    }

    /// Mutable extras, for the engine's update hook.
    pub fn extras_mut(&mut self) -> &mut [Box<dyn Metric>] {
        &mut self.extras
    }

    /// True when only the closeness primary is active: the publish
    /// barrier then has no rows to hand to any extra.
    pub fn closeness_only(&self) -> bool {
        self.extras.is_empty()
    }

    /// All carried kinds (primary + extras) as a mask.
    pub fn mask(&self) -> MetricMask {
        let mut m = MetricMask::only(MetricKind::Closeness);
        for e in &self.extras {
            m = m.with(e.kind());
        }
        m
    }

    /// Extra kinds in wire-id order (what the checkpoint records).
    pub fn extra_kinds(&self) -> Vec<MetricKind> {
        self.extras.iter().map(|e| e.kind()).collect()
    }

    /// Voids every stateful metric's cached state (rewinds only — see
    /// [`Metric::invalidate`]).
    pub fn invalidate_all(&mut self) {
        for e in &mut self.extras {
            e.invalidate();
        }
    }

    /// True when any extra needs the full row set next update.
    pub fn wants_all_rows(&self) -> bool {
        self.extras.iter().any(|e| e.wants_all_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_graph::centrality::betweenness_exact_det;
    use aaa_graph::sssp::dijkstra;

    fn sample() -> AdjGraph {
        let mut g = AdjGraph::with_vertices(6);
        for (u, v, w) in [(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 3, 2), (3, 4, 1), (4, 5, 2)] {
            g.add_edge(u, v, w).unwrap();
        }
        g
    }

    fn all_rows(g: &AdjGraph) -> Vec<(VertexId, Vec<Dist>)> {
        (0..g.num_vertices() as VertexId).map(|s| (s, dijkstra(g, s))).collect()
    }

    #[test]
    fn kind_wire_ids_round_trip() {
        for k in MetricKind::ALL {
            assert_eq!(MetricKind::from_wire_id(k.wire_id()), Some(k));
            assert_eq!(k.name().parse::<MetricKind>().unwrap(), k);
        }
        assert_eq!(MetricKind::from_wire_id(77), None);
        assert!("degree".parse::<MetricKind>().is_err());
    }

    #[test]
    fn mask_semantics() {
        let m = MetricMask::only(MetricKind::Closeness).with(MetricKind::Betweenness);
        assert!(m.contains(MetricKind::Closeness));
        assert!(m.contains(MetricKind::Betweenness));
        assert_eq!(m.len(), 2);
        assert_eq!(m.kinds().collect::<Vec<_>>(), MetricKind::ALL.to_vec());
        assert_eq!(m.to_string(), "closeness+betweenness");
        assert!(MetricMask::EMPTY.is_empty());
        assert_eq!(MetricMask::EMPTY.to_string(), "none");
    }

    #[test]
    fn inc_betweenness_full_rebuild_matches_oracle_bitwise() {
        let g = sample();
        let mut m = IncBetweenness::new();
        assert!(m.wants_all_rows());
        let changed = m.update(6, &all_rows(&g), &g);
        let oracle = betweenness_exact_det(&g);
        assert_eq!(m.full_column(6), Some(oracle.clone()));
        // First build reports every nonzero entry as changed.
        for (v, s) in changed {
            assert_eq!(s, oracle[v as usize]);
        }
        // A second update with no changed rows is a no-op delta.
        assert!(!m.wants_all_rows());
        assert!(m.update(6, &[], &g).is_empty());
        assert_eq!(m.tally().epochs, 2);
        assert_eq!(m.tally().full_recomputes, 1);
        assert_eq!(m.tally().sources_recomputed, 6);
        assert_eq!(m.tally().kernel_batches, 1); // six sources, one batch
    }

    #[test]
    fn inc_betweenness_incremental_source_update_tracks_oracle() {
        // Start from a stale row set (edge 4-5 missing), then converge.
        let mut g0 = sample();
        g0.remove_edge(4, 5).unwrap();
        let mut m = IncBetweenness::new();
        m.update(6, &all_rows(&g0), &g0);

        let g1 = sample();
        m.invalidate(); // structural change
        assert!(m.wants_all_rows());
        m.update(6, &all_rows(&g1), &g1);
        let oracle = betweenness_exact_det(&g1);
        assert_eq!(m.full_column(6), Some(oracle));
        assert_eq!(m.tally().full_recomputes, 2);
    }

    #[test]
    fn inc_betweenness_partial_row_update_recomputes_only_those_sources() {
        let g = sample();
        let mut m = IncBetweenness::new();
        m.update(6, &all_rows(&g), &g);
        let before = m.tally().sources_recomputed;
        // Re-hand two (already exact) rows: only those sources recompute,
        // and the column must not move.
        let rows: Vec<_> = all_rows(&g).into_iter().filter(|(v, _)| *v == 1 || *v == 3).collect();
        let delta = m.update(6, &rows, &g);
        assert!(delta.is_empty());
        assert_eq!(m.tally().sources_recomputed, before + 2);
        assert_eq!(m.tally().kernel_batches, 2);
    }

    #[test]
    fn metric_set_dedupes_and_masks() {
        let s = MetricSet::from_kinds(&[
            MetricKind::Betweenness,
            MetricKind::Closeness,
            MetricKind::Betweenness,
        ]);
        assert_eq!(s.extras().len(), 1);
        assert!(!s.closeness_only());
        assert!(s.wants_all_rows()); // fresh betweenness wants a rebuild
        assert_eq!(s.extra_kinds(), vec![MetricKind::Betweenness]);
        assert!(s.mask().contains(MetricKind::Closeness));
        let empty = MetricSet::from_kinds(&[]);
        assert!(empty.closeness_only());
        assert!(!empty.wants_all_rows());
        assert_eq!(empty.mask(), MetricMask::only(MetricKind::Closeness));
    }
}
